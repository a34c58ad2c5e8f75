"""Differentiating random d-regular graphs with closed-walk signatures.

The experiment generates a pool of pairwise non-isomorphic random d-regular
graphs (exact isomorphism rejection, since 1-WL cannot separate regular
graphs at all) and reports, for each signature length K, the fraction of
distinct walk-count signatures in the pool, next to the 1-WL baseline.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .counts import count_signatures, walk_count_features_many, zero_counts
from .errors import CapabilityError, InputError
from .generators import RNG_NAME, STREAM_SPLIT, child_seed, gen_d_regular_many
from .graph import Graph
from .nn import Model, forward_batch, input_features, make_batch
from .wl import ISO_WALK_K, IsoState, iso_state, isomorphic_states, wl_graph_hash

# The signature length is the key length of exact isomorphism, so the index
# takes every graph that wl.are_isomorphic takes.
PREFILTER_K = ISO_WALK_K
_REGEN_BUDGET_FACTOR = 50


@dataclass
class SignatureIndex:
    """Pairwise non-isomorphic graphs kept so far, bucketed by closed-walk
    signature of length PREFILTER_K, the key length of exact isomorphism,
    whose counts fit the 64-bit range on every graph of up to
    wl.MAX_ISO_NODES nodes, complete graphs included.

    Differing signatures (counts.count_signatures) certify non-isomorphism,
    so a new graph is checked by exact isomorphism only against its own
    bucket, in insertion order. ``first_walks[sig]`` holds the counts of a
    bucket's first graph until its first collision. From then on,
    ``states[sig]`` holds the wl.iso_state of each of its graphs, built once
    from the counts the index already read, so no state runs the kernel.
    """

    buckets: dict[bytes, list[Graph]] = field(default_factory=dict)
    first_walks: dict[bytes, np.ndarray] = field(default_factory=dict)
    states: dict[bytes, list[IsoState]] = field(default_factory=dict)

    def add_many(self, graphs: list[Graph], walks: list[np.ndarray] | None = None
                 ) -> list[bool]:
        """Add ``graphs`` in order, keeping each one unless it is isomorphic
        to a graph kept before it; True for each one kept.

        The signatures and isomorphism states read ``walks``, the graphs'
        closed-walk counts up to length PREFILTER_K, which one kernel call
        computes if not given.
        """
        if walks is None:
            walks = walk_count_features_many(graphs, PREFILTER_K)
        sigs = count_signatures(walks)
        return [self._insert(g, c, sig) for g, c, sig in zip(graphs, walks, sigs)]

    def _insert(self, g: Graph, walks: np.ndarray, sig: bytes) -> bool:
        bucket = self.buckets.setdefault(sig, [])
        if bucket:
            if sig not in self.states:
                self.states[sig] = [iso_state(bucket[0], self.first_walks.pop(sig))]
            states, state = self.states[sig], iso_state(g, walks)
            if any(isomorphic_states(state, other) for other in states):
                return False
            states.append(state)
        else:
            self.first_walks[sig] = walks
        bucket.append(g)
        return True


@dataclass
class ExperimentReport:
    settings: dict
    fractions: dict[int, float]
    wl_distinguished_fraction: float
    wl_all_equal: bool
    num_regen_for_nonisomorphism: int
    timestamp: str | None = None

    def to_obj(self) -> dict:
        obj = asdict(self)
        obj["fractions"] = {str(k): self.fractions[k] for k in sorted(self.fractions)}
        return obj

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


def build_nonisomorphic_pool(n: int, d: int, graph_count: int, seed: int,
                             walks: list[np.ndarray] | None = None
                             ) -> tuple[list[Graph], int]:
    """Generate graph_count pairwise non-isomorphic d-regular graphs,
    regenerating on isomorphism hits. Returns (pool, regeneration count).

    Candidates go through one SignatureIndex, in chunks of as many as the
    pool still lacks (clipped at the attempt budget): a chunk holds only
    candidates that drawing one at a time would also draw, so the pool,
    the count and the budget error are those of the one-at-a-time loop.
    The closed-walk counts up to length PREFILTER_K that the index read of
    each kept graph are appended to ``walks``, if given, in pool order.
    """
    kept = SignatureIndex()
    pool: list[Graph] = []
    index = 0
    budget = max(graph_count, 1) * _REGEN_BUDGET_FACTOR
    while len(pool) < graph_count:
        if index >= budget:
            raise CapabilityError(
                f"could not assemble {graph_count} non-isomorphic graphs "
                f"within {budget} attempts (n={n}, d={d})"
            )
        chunk = min(graph_count - len(pool), budget - index)
        candidates = gen_d_regular_many(
            n, d, [child_seed(seed, i) for i in range(index, index + chunk)])
        index += chunk
        counts = walk_count_features_many(candidates, PREFILTER_K)
        for g, c, new in zip(candidates, counts, kept.add_many(candidates, counts)):
            if new:
                pool.append(g)
                if walks is not None:
                    walks.append(c)
    return pool, index - len(pool)  # the candidates not kept


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
    # The pool's count rows must have a shape numpy can represent: check
    # before the pool is built (a bad n is the generator's to report).
    zero_counts(graph_count * max(n, 0), k_list[-1])
    walks: list[np.ndarray] = []
    pool, regen = build_nonisomorphic_pool(n, d, graph_count, seed, walks)

    # A graph's signature at length k reads the first k of its count columns,
    # which the pool's signature index computed up to PREFILTER_K.
    if k_list[-1] > PREFILTER_K:
        walks = walk_count_features_many(pool, k_list[-1])
    fractions = {k: len(set(count_signatures([c[:, :k] for c in walks]))) / graph_count
                 for k in k_list}

    counts = Counter(wl_graph_hash(g) for g in pool)
    singletons = sum(1 for c in counts.values() if c == 1)
    return ExperimentReport(
        settings={
            "n": n,
            "d": d,
            "graph_count": graph_count,
            "k_list": k_list,
            "seed": seed,
            "generator": {"rng": RNG_NAME, "stream_split": STREAM_SPLIT,
                          "model": "pairing-mckay-wormald-switchings"},
        },
        fractions=fractions,
        wl_distinguished_fraction=singletons / graph_count,
        wl_all_equal=len(counts) == 1,
        num_regen_for_nonisomorphism=regen,
    )


def certify_gnn_blindness(g: Graph, model: Model, tol: float = 1e-9) -> bool:
    """True iff a forward pass with constant features yields pairwise-equal
    node embeddings on a d-regular graph (the homogeneous failure mode).

    The graph runs as one batch: plain and id_fast models embed it whole
    (id_fast appends its walk-count columns to the constant base features,
    so it generally breaks the certificate); id_full models embed every node
    through its own ego network. Non-regular input is an error: the
    certificate is only meaningful for regular graphs.
    """
    if len(set(g.degrees())) > 1:
        raise InputError("blindness certificate requires a d-regular graph")
    g = replace(g, node_features=None)
    H = forward_batch(model, make_batch(model, [g], input_features(model.config, [g])))
    if H.shape[0] <= 1:
        return True
    return bool(np.max(np.abs(H - H[0])) <= tol)
