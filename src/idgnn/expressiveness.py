"""Differentiating random d-regular graphs with closed-walk signatures.

The experiment generates a pool of pairwise non-isomorphic random d-regular
graphs (exact isomorphism rejection, since 1-WL cannot separate regular
graphs at all) and reports, for each signature length K, the fraction of
distinct walk-count signatures in the pool, next to the 1-WL baseline.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .counts import graph_signature, walk_count_features
from .errors import CapabilityError, InputError
from .generators import RNG_NAME, STREAM_SPLIT, child_seed, gen_d_regular
from .graph import Graph, extract_ego
from .nn import Model, forward_id_full, forward_plain
from .wl import are_isomorphic, wl_graph_hash

_PREFILTER_K = 10
_REGEN_BUDGET_FACTOR = 50


@dataclass
class ExperimentReport:
    settings: dict
    fractions: dict[int, float]
    wl_distinguished_fraction: float
    wl_all_equal: bool
    num_regen_for_nonisomorphism: int
    timestamp: str | None = None

    def to_obj(self) -> dict:
        return {
            "settings": self.settings,
            "fractions": {str(k): self.fractions[k] for k in sorted(self.fractions)},
            "wl_distinguished_fraction": self.wl_distinguished_fraction,
            "wl_all_equal": self.wl_all_equal,
            "num_regen_for_nonisomorphism": self.num_regen_for_nonisomorphism,
            "timestamp": self.timestamp,
        }

    def to_csv(self) -> str:
        """One row per setting, one column per K, Table-style."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        ks = sorted(self.fractions)
        writer.writerow(["n", "d", "graph_count", "wl_baseline"] + [f"K={k}" for k in ks])
        writer.writerow(
            [
                self.settings["n"],
                self.settings["d"],
                self.settings["graph_count"],
                f"{self.wl_distinguished_fraction:.4f}",
            ]
            + [f"{self.fractions[k]:.4f}" for k in ks]
        )
        return buf.getvalue()


def build_nonisomorphic_pool(n: int, d: int, graph_count: int, seed: int
                             ) -> tuple[list[Graph], int]:
    """Generate graph_count pairwise non-isomorphic d-regular graphs,
    regenerating on isomorphism hits. Returns (pool, regeneration count).

    Differing walk-count signatures certify non-isomorphism cheaply, so the
    exact backtracking check only runs on signature collisions.
    """
    pool: list[Graph] = []
    sigs: list[bytes] = []
    regen = 0
    index = 0
    budget = max(graph_count, 1) * _REGEN_BUDGET_FACTOR
    while len(pool) < graph_count:
        if index >= budget:
            raise CapabilityError(
                f"could not assemble {graph_count} non-isomorphic graphs "
                f"within {budget} attempts (n={n}, d={d})"
            )
        g = gen_d_regular(n, d, child_seed(seed, index))
        index += 1
        sig = graph_signature(g, min(_PREFILTER_K, max(n - 1, 1)))
        duplicate = False
        for other, other_sig in zip(pool, sigs):
            if sig == other_sig and are_isomorphic(g, other):
                duplicate = True
                break
        if duplicate:
            regen += 1
            continue
        pool.append(g)
        sigs.append(sig)
    return pool, regen


def run_regular_experiment(n: int, d: int, graph_count: int, k_list,
                           seed: int) -> ExperimentReport:
    """Distinguished fraction of non-isomorphic random d-regular graphs by
    closed-walk signatures of each length in k_list, plus the 1-WL baseline.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if not k_list or k_list[0] < 1:
        raise InputError("k_list must contain integers >= 1")
    if graph_count < 1:
        raise InputError("graph_count must be >= 1")
    pool, regen = build_nonisomorphic_pool(n, d, graph_count, seed)

    k_max = k_list[-1]
    feats = [walk_count_features(g, k_max) for g in pool]

    fractions = {}
    for k in k_list:
        sigs = {
            tuple(sorted(tuple(int(x) for x in row[:k]) for row in f))
            for f in feats
        }
        fractions[k] = len(sigs) / graph_count

    hashes = [wl_graph_hash(g) for g in pool]
    counts: dict[int, int] = {}
    for h in hashes:
        counts[h] = counts.get(h, 0) + 1
    singletons = sum(1 for h in hashes if counts[h] == 1)
    report = ExperimentReport(
        settings={
            "n": n,
            "d": d,
            "graph_count": graph_count,
            "k_list": k_list,
            "seed": seed,
            "generator": {"rng": RNG_NAME, "stream_split": STREAM_SPLIT,
                          "model": "pairing-full-restart"},
        },
        fractions=fractions,
        wl_distinguished_fraction=singletons / graph_count,
        wl_all_equal=len(counts) == 1,
        num_regen_for_nonisomorphism=regen,
    )
    return report


def is_regular(g: Graph) -> bool:
    degs = set(g.degrees())
    return len(degs) <= 1


def certify_gnn_blindness(g: Graph, model: Model, tol: float = 1e-9) -> bool:
    """True iff a forward pass with constant features yields pairwise-equal
    node embeddings on a d-regular graph (the homogeneous failure mode).

    Plain and id_fast models run the whole-graph forward (id_fast appends
    its walk-count columns to the constant base features, so it generally
    breaks the certificate); id_full models embed every node through its own
    ego network. Non-regular input is an error: the certificate is only
    meaningful for regular graphs.
    """
    if not is_regular(g):
        raise InputError("blindness certificate requires a d-regular graph")
    cfg = model.config
    if cfg.variant == "id_fast":
        base = np.ones((g.num_nodes, cfg.input_dim - cfg.fast_k))
        counts = walk_count_features(g, cfg.fast_k).astype(np.float64)
        x = np.concatenate([base, np.log1p(counts)], axis=1)
    else:
        x = np.ones((g.num_nodes, cfg.input_dim))
    if model.config.variant == "id_full":
        k = model.config.num_layers
        rows = []
        for v in range(g.num_nodes):
            ego = extract_ego(g, v, k)
            x_local = np.ones((ego.subgraph.num_nodes, model.config.input_dim))
            rows.append(forward_id_full(model, ego, x_local))
        H = np.stack(rows)
    else:
        H = forward_plain(model, g, x)
    if H.shape[0] <= 1:
        return True
    return bool(np.max(np.abs(H - H[0])) <= tol)
