"""Central-finite-difference gradient checking with ReLU/max-tie exclusion.

A perturbed coordinate is excluded when the two half-step evaluations see
different activation patterns (some pre-activation or max-argmax sat within
the step of a kink); analytic subgradients are not comparable to finite
differences across a kink.
"""

from __future__ import annotations

import hashlib

import numpy as np

from idgnn.graph import Graph
from idgnn.nn import (
    Model,
    backward_layers,
    edge_pair_backward,
    edge_pair_score,
    forward_batch,
    head_backward,
    head_logits,
    make_batch,
    zero_grads,
)
from idgnn.optim import loss_xent


def _pattern(tape, pair_caches) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for cache in tape:
        for key in ("M", "S", "P", "P1", "P2"):
            if key in cache:
                h.update((cache[key] > 0.0).tobytes())
        if "src" in cache:
            h.update(cache["src"].tobytes())
    for cache in pair_caches:
        h.update((cache["p1"] > 0.0).tobytes())
    return h.digest()


def randomize(model: Model, seed: int, scale: float = 0.3) -> None:
    """Give every tensor (including biases) nonzero random values so each
    parameter carries gradient signal."""
    rng = np.random.default_rng(seed)
    for arr in model.params.values():
        arr[...] = rng.normal(scale=scale, size=arr.shape)


def tie_msg1(model: Model) -> None:
    """Give every msg1 tensor of an id_full model its layer's msg0 values."""
    p = model.params
    for i in range(model.config.num_layers):
        for kind in ("weight", "bias"):
            p[f"layers.{i}.msg1_{kind}"][...] = p[f"layers.{i}.msg0_{kind}"]


def copy_params(dst: Model, src: Model) -> None:
    """Set every tensor of ``dst`` to the tensor of ``src`` with its name; a
    plain model's names are those of the id_full model minus msg1."""
    for name, arr in dst.params.items():
        arr[...] = src.params[name]


def model_loss(model: Model, g: Graph, x: np.ndarray, labels: np.ndarray,
               record: bool = False):
    """Composite loss exercising layers, the linear head, and the pair head.

    The graph runs as one batch (id_full models embed each node through its
    ego network). The loss is cross-entropy on per-node head logits plus
    cross-entropy on one pair score.
    """
    tape: list = []
    pair_caches: list = []
    batch = make_batch(model, [g], [x])
    H = forward_batch(model, batch, tape)
    logits = head_logits(model, H)
    node_loss, G_logits = loss_xent(logits, labels)
    pair_logits = edge_pair_score(model, H[:1], H[-1:], pair_caches)
    pair_loss, G_pair = loss_xent(pair_logits, labels[:1])
    loss = node_loss + pair_loss
    if not record:
        return loss, _pattern(tape, pair_caches), None

    grads = zero_grads(model)
    G_H = head_backward(model, H, G_logits, grads)
    g_u, g_v = edge_pair_backward(model, pair_caches[0], G_pair, grads)
    G_H[:1] += g_u
    G_H[-1:] += g_v
    backward_layers(model, tape, G_H, grads)
    return loss, _pattern(tape, pair_caches), grads


def fd_check(model: Model, g: Graph, x: np.ndarray, labels: np.ndarray,
             h: float = 1e-5, rel_tol: float = 1e-4):
    """Check every coordinate of every tensor; returns
    (checked, excluded, worst_rel_err, failures)."""
    _, _, grads = model_loss(model, g, x, labels, record=True)
    checked = excluded = 0
    worst = 0.0
    failures = []
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, pat_p, _ = model_loss(model, g, x, labels)
            flat[idx] = orig - h
            lm, pat_m, _ = model_loss(model, g, x, labels)
            flat[idx] = orig
            if pat_p != pat_m:
                excluded += 1
                continue
            fd = (lp - lm) / (2.0 * h)
            an = gflat[idx]
            err = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
            checked += 1
            worst = max(worst, err)
            if err >= rel_tol:
                failures.append((name, idx, fd, an, err))
    return checked, excluded, worst, failures
