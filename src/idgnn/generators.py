"""Seeded synthetic graph generators: random d-regular, small-world, scale-free.

All randomness flows through numpy's PCG64 bit generator (the recorded
implementation constant ``RNG_NAME``). Per-graph streams are split
deterministically: ``child_seed(seed, index)`` hashes the pair with blake2b,
so datasets are reproducible bit-for-bit and may be generated out of order.

Random d-regular graphs are exactly uniform over the simple ones: pairings
are shuffled until one has no loop, no triple edge and few double edges,
which McKay and Wormald's switchings then remove, each with an exact
rejection, instead of a restart. Seeds are drawn in order in one process.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CapabilityError, InputError
from .graph import Graph, build_graph, build_graphs

log = logging.getLogger(__name__)

RNG_NAME = "pcg64"
STREAM_SPLIT = "blake2b(seed,index)[:8]"
D_REGULAR_MODEL = "pairing-mckay-wormald-switchings"

FAMILIES = ("d_regular", "small_world", "scale_free")

_MAX_PAIRING_RESTARTS = 1_000_000
_PAIRING_BLOCK = 128  # most consecutive shuffles _draw_pairing checks at once
_PAIRING_BLOCK_STUBS = 1 << 17  # and most stubs in one block (1 MB of int64)
_BUILD_EDGES = 1 << 13  # most edges gen_d_regular_many builds at once
_SWITCHING_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835  # PCG64.jumped()'s step, no OS entropy


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


def _bounds(n: int, d: int) -> tuple[int, int, int, int]:
    """(full, conf, loss, D): the ordered stars of a simple d-regular graph,
    the most stars the conflict cells of one inverse switching hold, the
    most stars one double edge removes, and the most doubles a candidate may
    have, so that switchings from class D down keep c_min >= 1."""
    full, conf, loss = n * d * (d - 1), (3 * d + 5) * d * (d - 1), 2 * (4 * d - 6)
    return full, conf, loss, (0 if d < 3 or full - conf < 1 else (full - conf - 1) // loss + 1)


class _Pairing:
    """A pairing with no loop and no triple edge, whose double edges McKay and
    Wormald's switchings remove. Slot i joins ``cells[2i]`` and
    ``cells[2i + 1]``; ``nbrs[v]`` lists v's neighbours once per stub,
    ``single[v]`` counts its single edges, ``stars`` is |S|, the number of
    ordered stars (c; w1, w2) of single edges cw1 != cw2, and ``doubles``
    maps each double's key lo*n + hi to its two slots."""

    def __init__(self, cells: np.ndarray, n: int, d: int):
        self.cells, self.n = cells.tolist(), n
        self.full, self.conf, self.loss, _ = _bounds(n, d)
        # stable sorts, as the signatures' lexsort uses, page in no other sort code
        self.nbrs = cells[np.argsort(cells, kind="stable") ^ 1].reshape(n, d).tolist()
        keys = np.minimum(cells[0::2], cells[1::2]) * n + np.maximum(cells[0::2], cells[1::2])
        order = np.argsort(keys, kind="stable")
        first = np.flatnonzero(keys[order][1:] == keys[order][:-1])
        self.doubles = {int(keys[order[i]]): [int(order[i]), int(order[i + 1])] for i in first}
        ends = np.divmod(np.array(list(self.doubles), dtype=np.int64), n)
        self.single = (d - 2 * np.bincount(np.concatenate(ends), minlength=n)).tolist()
        self.stars = sum(s * (s - 1) for s in self.single)

    def pick(self, index: int, bits: int, p5: int, p7: int):
        """((v1, ..., v6), key, x2, x4, p5, p7) of double ``index`` in key order,
        v1 and the first slot chosen by bits 0 and 1 of ``bits``, x2 and x4
        v2's positions, v3, v5 = cells[p5], cells[p5 ^ 1] and v4, v6 likewise
        at p7. None (the f-rejection) unless the six cells differ, v3v5 and
        v4v6 are single edges, and v1v3, v1v4, v2v5, v2v6 are not edges."""
        key = sorted(self.doubles)[index]
        v1, v2 = divmod(key, self.n)
        if bits & 1:
            v1, v2 = v2, v1
        first, second = self.doubles[key][::-1] if bits & 2 else self.doubles[key]
        c, nbrs = self.cells, self.nbrs
        x2, x4 = 2 * first + (c[2 * first + 1] == v2), 2 * second + (c[2 * second + 1] == v2)
        v3, v5, v4, v6 = c[p5], c[p5 ^ 1], c[p7], c[p7 ^ 1]
        if (len({v1, v2, v3, v4, v5, v6}) < 6 or nbrs[v3].count(v5) != 1
                or nbrs[v4].count(v6) != 1 or v3 in nbrs[v1] or v4 in nbrs[v1]
                or v5 in nbrs[v2] or v6 in nbrs[v2]):
            return None
        return (v1, v2, v3, v4, v5, v6), key, x2, x4, p5, p7

    def switch(self, pick) -> None:
        """Swap v2 at x2 with v3 at p5, and v2 at x4 with v4 at p7."""
        (v1, v2, v3, v4, v5, v6), key, x2, x4, p5, p7 = pick
        self.cells[x2], self.cells[p5], self.cells[x4], self.cells[p7] = v3, v2, v4, v2
        del self.doubles[key]
        for u, old, new in ((v1, v2, v3), (v1, v2, v4), (v2, v1, v5), (v2, v1, v6),
                            (v3, v5, v1), (v5, v3, v2), (v4, v6, v1), (v6, v4, v2)):
            nb = self.nbrs[u]
            nb[nb.index(old)] = new
        # v1 and v2 each gain two single edges, and v3..v6 trade one
        self.stars += 4 * self.single[v1] + 4 * self.single[v2] + 4
        self.single[v1] += 2
        self.single[v2] += 2

    def compatible_stars(self, v1: int, v3: int, v4: int) -> int:
        """N2: the stars (c; w1, w2) with c outside N[v1], w1 outside {v1, v3,
        v4} and N(v3), and w2 outside {v1, v3, v4} and N(v4): |S| less the
        stars centred at N[v1] or next to those at most 2d + 4 cells."""
        nbrs, single = self.nbrs, self.single
        near = {v1, *nbrs[v1]}
        out1, out2 = {v1, v3, v4, *nbrs[v3]}, {v1, v3, v4, *nbrs[v4]}
        ws = {x: [w for w in nbrs[x] if single[x] == len(nbrs[x]) or nbrs[x].count(w) == 1]
              for x in out1 | out2}
        # c -> how many of its single neighbours lie in out1, in out2, in either
        hit1, hit2, hit = (Counter(chain.from_iterable(ws[x] for x in xs))
                           for xs in (out1, out2, ws))
        lost = sum(single[c] * (single[c] - 1) for c in near)
        for c, h in hit.items():
            if c not in near:
                k = single[c]
                lost += k * (k - 1) - (k - hit1[c]) * (k - hit2[c]) + k - h
        return self.stars - lost

    def remove_doubles(self, rng: np.random.Generator) -> bool:
        """Switch until no double is left; False at the first rejection.

        A switching from class m draws its ``pick`` with ``integers(m)``,
        ``integers(4)`` and ``integers(N)`` twice. Every class-m pairing has
        4m*N^2 picks, so the valid ones are equally likely; they match one to
        one the inverse structures of their results, a star (v1; v3, v4) and
        a compatible star (v2; v5, v6). The b-rejection, with Arman, Gao and
        Wormald's incremental relaxation, accepts with probability S_min/|S|
        and c_min/N2, one ``random()`` each, S_min and c_min bounding |S| and
        N2 over class m - 1. Every result is then equally likely, so a
        survivor is uniform over simple graphs. A broken bound raises.
        """
        size = len(self.cells)
        while self.doubles:
            m = len(self.doubles)
            pick = self.pick(int(rng.integers(m)), int(rng.integers(4)),
                             int(rng.integers(size)), int(rng.integers(size)))
            if pick is None:
                return False
            self.switch(pick)
            v1, _, v3, v4 = pick[0][:4]
            s_min = self.full - self.loss * (m - 1)
            n2, c_min = self.compatible_stars(v1, v3, v4), s_min - self.conf
            if not (s_min <= self.stars and 1 <= c_min <= n2):
                raise RuntimeError(f"bounds broken: S_min = {s_min}, |S| = {self.stars}, "
                                   f"c_min = {c_min}, N2 = {n2}")
            if rng.random() * self.stars >= s_min or rng.random() * n2 >= c_min:
                return False
        return True


def _draw_pairing(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One seed's simple pairing, as copies of its lower and upper endpoints,
    and the number of rows discarded before it. Rows are shuffles of the
    stubs on ``_rng(seed)``; a row with no loop, no triple edge and at most
    D doubles wins if it has none, else it is switched on
    ``PCG64(seed).jumped()`` and discarded at a rejection. Rows are checked
    in blocks, the first sized from the rows expected before such a row,
    then doubling up to ``_PAIRING_BLOCK`` rows and ``_PAIRING_BLOCK_STUBS``
    stubs, with the result of checking one row at a time."""
    rng, switchings = _rng(seed), None
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    most = _bounds(n, d)[3]
    cap = max(1, min(_PAIRING_BLOCK, _PAIRING_BLOCK_STUBS // max(stubs.size, 1)))
    # about e^((d^2-1)/4) rows come before a simple one, e^((d-1)/2) before one without loops
    log_rows = (d * d - 1) / 4 if most == 0 else (d - 1) / 2
    batch = cap if log_rows >= math.log(cap) else min(cap, math.ceil(math.exp(log_rows)))
    restarts = 0
    while restarts <= _MAX_PAIRING_RESTARTS:
        states = np.empty((batch, stubs.size), dtype=np.int64)
        for row in states:
            rng.shuffle(stubs)
            row[:] = stubs
        free = np.flatnonzero((states[:, 0::2] != states[:, 1::2]).all(axis=1))
        u, v = states[free, 0::2], states[free, 1::2]
        keys = np.sort(np.minimum(u, v) * np.int64(n) + np.maximum(u, v), axis=1)
        repeat = keys[:, 1:] == keys[:, :-1]
        doubles = repeat.sum(axis=1)
        fit = (~(repeat[:, 1:] & repeat[:, :-1]).any(axis=1) & (doubles <= most)
               & (restarts + free <= _MAX_PAIRING_RESTARTS))
        for row, double in zip(free[fit].tolist(), doubles[fit].tolist()):
            cells = states[row]
            if double:
                switchings = switchings or np.random.Generator(
                    np.random.PCG64(seed).advance(_SWITCHING_JUMP))
                pairing = _Pairing(cells, n, d)
                if not pairing.remove_doubles(switchings):
                    continue
                cells = np.array(pairing.cells, dtype=np.int64)
            u, v = cells[0::2], cells[1::2]
            return np.minimum(u, v), np.maximum(u, v), restarts + row
        restarts += batch
        batch = min(2 * batch, cap)
    raise CapabilityError(f"pairing model failed to produce a simple {d}-regular graph "
                          f"on {n} nodes within {_MAX_PAIRING_RESTARTS} restarts")


def gen_d_regular_many(n: int, d: int, seeds) -> list[Graph]:
    """``gen_d_regular`` on each seed, in order, building the graphs in
    batches of at most ``_BUILD_EDGES`` edges. The restart records come in
    seed order, before the error of the first seed that fails."""
    _check_params("d_regular", n, d, 0.0)
    seeds, graphs, lows, highs = list(seeds), [], [], []
    batch = max(1, _BUILD_EDGES // max(n * d // 2, 1))
    for i, seed in enumerate(seeds):
        lo, hi, restarts = _draw_pairing(n, d, int(seed))
        if restarts:
            log.debug("d-regular pairing restarted %d times (n=%d, d=%d)", restarts, n, d)
        lows.append(lo)
        highs.append(hi)
        if len(lows) == batch or i == len(seeds) - 1:
            graphs += build_graphs([n] * len(lows), [n * d // 2] * len(lows),
                                   np.concatenate(lows), np.concatenate(highs))
            lows, highs = [], []
    return graphs


def gen_d_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph, exactly uniform over the simple ones
    (``_draw_pairing``). The number of discarded rows is logged at debug
    level as the restart count."""
    return gen_d_regular_many(n, d, [seed])[0]


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
    seeds = [child_seed(seed, i) for i in range(count)]
    if spec.family == "d_regular":
        return gen_d_regular_many(spec.num_nodes, spec.degree_param, seeds)
    return [generate_one(spec, s) for s in seeds]
