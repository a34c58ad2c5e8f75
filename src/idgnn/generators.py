"""Seeded synthetic graph generators: random d-regular, small-world, scale-free.

All randomness flows through numpy's PCG64 bit generator (the recorded
implementation constant ``RNG_NAME``). Per-graph streams are split
deterministically: ``child_seed(seed, index)`` hashes the pair with blake2b,
so datasets are reproducible bit-for-bit and may be generated out of order.
"""

from __future__ import annotations

import hashlib
import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError
from .graph import Graph, build_graph, build_graphs

log = logging.getLogger(__name__)

RNG_NAME = "pcg64"
STREAM_SPLIT = "blake2b(seed,index)[:8]"

FAMILIES = ("d_regular", "small_world", "scale_free")

_MAX_PAIRING_RESTARTS = 1_000_000
_PAIRING_BLOCK = 128  # most consecutive shuffles gen_d_regular checks at once
_PAIRING_BLOCK_STUBS = 1 << 17  # and most stubs in one block (1 MB of int64)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one generator family.

    ``degree_param`` is d for d-regular, the ring-neighbor count k for
    small-world, and the attachment count m for scale-free.
    ``rewire_or_triad_prob`` is the rewiring probability p (small-world) or
    the triad-formation probability (scale-free); ignored for d-regular.
    """

    family: str
    num_nodes: int
    degree_param: int
    rewire_or_triad_prob: float = 0.0

    def __post_init__(self):
        _check_params(self.family, self.num_nodes, self.degree_param,
                      self.rewire_or_triad_prob)


def _check_params(family: str, n: int, param: int, prob: float) -> None:
    """InputError unless ``family`` is known and n nodes, ``param`` (d, k or
    m) and ``prob`` are valid for it; the spec and every generator check here."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    if not 0.0 <= prob <= 1.0:
        raise InputError(f"probability must be in [0, 1], got {prob}")
    if family == "d_regular":
        if not 0 <= param < n:
            raise InputError(f"d-regular needs 0 <= d < n, got d={param}, n={n}")
        if (n * param) % 2 != 0:
            raise InputError(f"n*d must be even for d-regular, got n={n}, d={param}")
    elif family == "small_world":
        if param % 2 != 0 or not 0 <= param < n:
            raise InputError(f"small-world needs even 0 <= k < n, got k={param}, n={n}")
    elif not 1 <= param < n:
        raise InputError(f"scale-free needs 1 <= m < n, got m={param}, n={n}")


def check_seed(seed: int) -> None:
    """InputError unless ``seed`` is a signed 64-bit integer."""
    if not -2**63 <= int(seed) < 2**63:
        raise InputError(f"seed {seed} is outside the signed 64-bit range")


def child_seed(seed: int, index: int) -> int:
    """Derive the per-item RNG seed from a base seed and an item index, both
    signed 64-bit integers."""
    check_seed(seed)
    payload = struct.pack(">qq", int(seed), int(index))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_d_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the configuration (pairing) model.

    Pairings containing a self-loop or duplicate edge are discarded and the
    whole pairing is restarted, which keeps the draw unbiased over simple
    pairings. The checks run on blocks of consecutive shuffles of one RNG
    stream (1, 2, 4, ... up to ``_PAIRING_BLOCK`` rows), and the first simple
    row wins, so the graph and the restart count are those of checking one
    shuffle at a time. The restart count is logged at debug level.
    """
    _check_params("d_regular", n, d, 0.0)
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    restarts, batch = 0, 1
    while True:
        states = np.empty((batch, stubs.size), dtype=np.int64)
        for row in states:
            rng.shuffle(stubs)
            row[:] = stubs
        free = np.flatnonzero((states[:, 0::2] != states[:, 1::2]).all(axis=1))
        u, v = states[free, 0::2], states[free, 1::2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.sort(lo * np.int64(n) + hi, axis=1)
        simple = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).all(axis=1))
        first = int(free[simple[0]]) if simple.size else batch
        restarts += first
        if restarts > _MAX_PAIRING_RESTARTS:
            raise CapabilityError(
                f"pairing model failed to produce a simple {d}-regular graph "
                f"on {n} nodes within {_MAX_PAIRING_RESTARTS} restarts"
            )
        if first < batch:
            break
        batch = max(1, min(2 * batch, _PAIRING_BLOCK, _PAIRING_BLOCK_STUBS // stubs.size))
    if restarts:
        log.debug("d-regular pairing restarted %d times (n=%d, d=%d)", restarts, n, d)
    row = simple[0]
    return build_graphs([n], [lo.shape[1]], lo[row], hi[row])[0]


def gen_small_world(n: int, k: int, p: float, seed: int) -> Graph:
    """Watts-Strogatz graph: ring lattice with k nearest neighbors, each edge
    rewired independently with probability p. Rewiring preserves the edge
    count and simplicity; an edge keeps its original endpoint if no valid
    rewire target exists.
    """
    _check_params("small_world", n, k, p)
    rng = _rng(seed)
    edge_set: set[tuple[int, int]] = set()

    def canon(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    for offset in range(1, k // 2 + 1):
        for u in range(n):
            edge_set.add(canon(u, (u + offset) % n))

    # rewire the far endpoint of each lattice edge, in deterministic order
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            if rng.random() >= p:
                continue
            old = canon(u, (u + offset) % n)
            if old not in edge_set:
                continue  # already rewired away by an earlier step
            for _ in range(8 * n):
                w = int(rng.integers(n))
                if w != u and canon(u, w) not in edge_set:
                    edge_set.remove(old)
                    edge_set.add(canon(u, w))
                    break
    return build_graph(n, sorted(edge_set))


def gen_scale_free(n: int, m: int, p_triad: float, seed: int) -> Graph:
    """Growing scale-free graph: preferential attachment with m edges per new
    node plus a triad-formation step taken with probability p_triad.

    Growth starts from a clique on the first m nodes, so the edge count is
    always C(m, 2) + m * (n - m).
    """
    _check_params("scale_free", n, m, p_triad)
    rng = _rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # degree-proportional sampling pool: each node appears deg(node) times;
    # isolated seed node (m == 1) still needs to be attachable
    repeated: list[int] = [v for u, v in edges for v in (u, v)] or [0]

    for t in range(m, n):
        prev_target: int | None = None
        added = 0
        while added < m:
            z = None
            if prev_target is not None and p_triad > 0 and rng.random() < p_triad:
                cands = [w for w in sorted(adj[prev_target]) if w != t and w not in adj[t]]
                if cands:
                    z = cands[int(rng.integers(len(cands)))]
            if z is None:
                # preferential attachment, redrawing on collisions
                while True:
                    y = repeated[int(rng.integers(len(repeated)))]
                    if y != t and y not in adj[t]:
                        break
                z = y
                prev_target = y
            edges.append((t, z) if t < z else (z, t))
            adj[t].add(z)
            adj[z].add(t)
            repeated.extend((t, z))
            added += 1
    return build_graph(n, edges)


def generate_one(spec: GeneratorSpec, seed: int) -> Graph:
    if spec.family == "d_regular":
        return gen_d_regular(spec.num_nodes, spec.degree_param, seed)
    if spec.family == "small_world":
        return gen_small_world(
            spec.num_nodes, spec.degree_param, spec.rewire_or_triad_prob, seed
        )
    return gen_scale_free(
        spec.num_nodes, spec.degree_param, spec.rewire_or_triad_prob, seed
    )


def gen_dataset(spec: GeneratorSpec, count: int, seed: int) -> list[Graph]:
    """Generate ``count`` graphs with per-graph seeds split from ``seed``."""
    if count < 0:
        raise InputError(f"count must be nonnegative, got {count}")
    check_seed(seed)
    return [generate_one(spec, child_seed(seed, i)) for i in range(count)]
