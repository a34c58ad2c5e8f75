"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (exhaustive enumeration, dense matrix
powers, Floyd-Warshall) and shares no code with the package paths it checks.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from idgnn.generators import GeneratorSpec, child_seed, generate_one
from idgnn.graph import EgoNet, Graph, build_graph


def count_walks_brute(g: Graph, start: int, end: int, length: int) -> int:
    """Number of length-`length` walks from start to end, by enumeration."""
    if length == 0:
        return int(start == end)
    total = 0
    frontier = [(start, 0)]
    while frontier:
        node, steps = frontier.pop()
        if steps == length:
            total += int(node == end)
            continue
        for w in g.adjacency[node]:
            frontier.append((w, steps + 1))
    return total


def dense_power_diag(g: Graph, k: int) -> np.ndarray:
    """Diag(A^j) for j = 1..k via dense integer matrix powers."""
    n = g.num_nodes
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in g.edges:
        A[u, v] = 1
        A[v, u] = 1
    out = np.zeros((n, k), dtype=np.int64)
    P = np.eye(n, dtype=np.int64)
    for j in range(k):
        P = P @ A
        out[:, j] = np.diag(P)
    return out


def floyd_warshall(g: Graph) -> np.ndarray:
    n = g.num_nodes
    INF = np.iinfo(np.int64).max // 4
    D = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(D, 0)
    for u, v in g.edges:
        D[u, v] = 1
        D[v, u] = 1
    for m in range(n):
        D = np.minimum(D, D[:, m][:, None] + D[m, :][None, :])
    return D


def triangle_count_at(g: Graph, v: int) -> int:
    nbrs = g.adjacency[v]
    return sum(
        1
        for i, a in enumerate(nbrs)
        for b in nbrs[i + 1:]
        if g.has_edge(a, b)
    )


def random_mixed_graphs(count: int, seed: int, max_n: int = 40) -> list[Graph]:
    """Seeded graphs drawn across all three generator families."""
    graphs = []
    rng = np.random.default_rng(seed)
    families = ["d_regular", "small_world", "scale_free"]
    for i in range(count):
        family = families[i % 3]
        if family == "d_regular":
            n = int(rng.integers(8, max_n + 1))
            d = int(rng.integers(2, 6))
            if d >= n:
                d = 2
            if (n * d) % 2:
                n += 1
            spec = GeneratorSpec(family, min(n, max_n + 1), d)
        elif family == "small_world":
            n = int(rng.integers(8, max_n + 1))
            spec = GeneratorSpec(family, n, 4, float(rng.uniform(0, 0.5)))
        else:
            n = int(rng.integers(8, max_n + 1))
            m = int(rng.integers(1, 4))
            spec = GeneratorSpec(family, n, m, float(rng.uniform(0, 0.8)))
        graphs.append(generate_one(spec, child_seed(seed, i)))
    return graphs


def max_aggregate_naive(M: np.ndarray, g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Per-node, per-column max over neighbor rows of M and its sender.

    Neighbors are scanned in ascending id order and only a strictly larger
    value replaces the running maximum, so ties go to the lowest id. An
    isolated node keeps S = 0 and sender -1.
    """
    n, d = M.shape
    S = np.zeros((n, d))
    src = np.full((n, d), -1, dtype=np.int64)
    for u in range(n):
        for c in range(d):
            for w in sorted(g.adjacency[u]):
                if src[u, c] < 0 or M[w, c] > S[u, c]:
                    S[u, c] = M[w, c]
                    src[u, c] = w
    return S, src


def max_scatter_naive(G_S: np.ndarray, src: np.ndarray, n: int) -> np.ndarray:
    """Route each aggregate's gradient back to the row that sent its max."""
    G_M = np.zeros((n, G_S.shape[1]))
    for u in range(src.shape[0]):
        for c in range(src.shape[1]):
            if src[u, c] >= 0:
                G_M[src[u, c], c] += G_S[u, c]
    return G_M


def ego_by_induced_edges(g: Graph, center: int, k: int,
                         identity_at: int | None = None) -> EgoNet:
    """The K-hop ego net as build_graph over the induced edge list, with the
    ball read off Floyd-Warshall distances."""
    ball = [int(v) for v in np.flatnonzero(floyd_warshall(g)[center] <= k)]
    local = {p: i for i, p in enumerate(ball)}
    edges = [(local[u], local[v]) for u, v in g.edges if u in local and v in local]
    feats = None if g.node_features is None else g.node_features[ball, :]
    identity = center if identity_at is None else identity_at
    return EgoNet(build_graph(len(ball), edges, feats), local[center], tuple(ball),
                  tuple(p == identity for p in ball))


def isomorphic_brute(g1: Graph, g2: Graph) -> bool:
    """Isomorphism by trying every node permutation (a handful of nodes)."""
    if g1.num_nodes != g2.num_nodes or g1.num_edges != g2.num_edges:
        return False
    edges2 = set(g2.edges)
    return any(
        all((min(p[u], p[v]), max(p[u], p[v])) in edges2 for u, v in g1.edges)
        for p in permutations(range(g1.num_nodes))
    )


def d_regular_sequential(n: int, d: int, seed: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The pairing model checked one shuffle at a time: shuffle the stubs in
    place until a pairing has no self-loop and no duplicate edge. Returns the
    sorted edges of that pairing and the number of pairings discarded."""
    rng = np.random.Generator(np.random.PCG64(seed))
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    restarts = 0
    while True:
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        if not np.any(u == v):
            lo, hi = np.minimum(u, v), np.maximum(u, v)
            keys = lo * np.int64(n) + hi
            if np.unique(keys).size == keys.size:
                return tuple(sorted(zip(lo.tolist(), hi.tolist()))), restarts
        restarts += 1
