"""Central-finite-difference gradient checking with ReLU/max-tie exclusion.

A perturbed coordinate is excluded when the two half-step evaluations see
different activation patterns (some pre-activation or max-argmax sat within
the step of a kink); analytic subgradients are not comparable to finite
differences across a kink.
"""

from __future__ import annotations

import hashlib

import numpy as np

from idgnn.graph import Graph, build_graph, ego_union
from idgnn.nn import (
    Model,
    ModelConfig,
    backward_layers,
    edge_pair_backward,
    edge_pair_score,
    forward_batch,
    head_backward,
    head_logits,
    init_model,
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


def shared_rows_case(flavor: str, aggregation: str = "", seed: int = 0):
    """An id_full case whose batch reads whole-graph rows, some of them as
    the own row of several ego rows (a repeated ``keep``): a path of 6
    nodes, 3 layers, identities 2 or more hops from their centers and
    repeated centers. Returns (model, graph, inputs, labels, anchors)."""
    g = build_graph(6, [(i, i + 1) for i in range(5)])
    anchors = [(0, 2), (0, 3), (5, 3), (5, 2), (1, 4), (4, 1), (2, 5)]
    model = init_model(ModelConfig(flavor=flavor, variant="id_full", aggregation=aggregation,
                                   num_layers=3, hidden_dim=3, input_dim=2, output_dim=3,
                                   seed=seed))
    randomize(model, seed=seed + 50)
    rng = np.random.default_rng(seed)
    return model, g, rng.normal(size=(6, 2)), rng.integers(0, 3, size=len(anchors)), anchors


def assert_shares_rows(model: Model, g: Graph, x: np.ndarray, anchors) -> None:
    """The one-graph batch of ``anchors`` reads fewer rows than its ego nets
    would alone, and some layer's ``keep`` repeats."""
    k = model.config.num_layers
    batch = make_batch(model, [g], [x], [anchors])
    depth = ego_union([g], [anchors], k).depth
    assert sum(ops.n_in for ops in batch.layers) < sum(
        int((depth <= k - l).sum()) for l in range(k))
    assert any(np.unique(ops.keep).size < ops.keep.size for ops in batch.layers)


def model_loss(model: Model, g: Graph, x: np.ndarray, labels: np.ndarray,
               record: bool = False, anchors=None):
    """Composite loss exercising layers, the linear head, and the pair head.

    The graph runs as one batch (id_full models embed each node through its
    ego network, or each of ``anchors`` when given). The loss is
    cross-entropy on per-row head logits plus cross-entropy on one pair
    score.
    """
    tape: list = []
    pair_caches: list = []
    batch = make_batch(model, [g], [x], None if anchors is None else [anchors])
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
             h: float = 1e-5, rel_tol: float = 1e-4, anchors=None):
    """Check every coordinate of every tensor of model_loss; returns
    (checked, excluded, worst_rel_err, failures)."""
    _, _, grads = model_loss(model, g, x, labels, record=True, anchors=anchors)
    checked = excluded = 0
    worst = 0.0
    failures = []
    for name, arr in model.params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, pat_p, _ = model_loss(model, g, x, labels, anchors=anchors)
            flat[idx] = orig - h
            lm, pat_m, _ = model_loss(model, g, x, labels, anchors=anchors)
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
