"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (exhaustive enumeration, dense matrix
powers, Floyd-Warshall, dense message passing one graph at a time) and
shares no code with the package paths it checks. The exceptions are the
per-graph references (ego_layout_per_graph, spd_task_per_graph): the
earlier numpy implementations, which search one graph at a time through the
one-graph calls of graph.bfs_blocks and graph.ego_union, themselves checked
against Floyd-Warshall and ego_by_induced_edges. The dataset reader
load_jsonl_per_line is the earlier line-by-line reader, with the earlier
per-edge graph construction.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import count, permutations

import numpy as np

from idgnn.datasets import MAX_NODES
from idgnn.errors import CapabilityError, InputError, ParseError
from idgnn.generators import GeneratorSpec, child_seed, gen_d_regular, generate_one
from idgnn.graph import EgoNet, Graph, bfs_blocks, build_graph, ego_union


def edge_list(g: Graph) -> tuple[tuple[int, int], ...]:
    """Each edge of ``g`` once, as ``(u, v)`` with ``u < v``, ascending,
    read off its CSR arrays one neighbor at a time."""
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    return tuple((u, w) for u in range(g.num_nodes) for w in nbrs[ptr[u]:ptr[u + 1]] if u < w)


def neighbor_lists(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``neighbor_lists(g)[v]``: the ascending tuple of v's neighbors."""
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    return tuple(tuple(nbrs[a:b]) for a, b in zip(ptr, ptr[1:]))


def same_graph(a: Graph, b: Graph) -> bool:
    """Whether two graphs hold equal node counts, CSR arrays and features
    (both None, or equal arrays)."""
    fa, fb = a.node_features, b.node_features
    return (a.num_nodes == b.num_nodes
            and np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and (fa is None) == (fb is None) and (fa is None or np.array_equal(fa, fb)))


def same_ego(a: EgoNet, b: EgoNet) -> bool:
    """Whether two ego nets hold the same fields, subgraphs by same_graph."""
    return (same_graph(a.subgraph, b.subgraph)
            and (a.center_local_index, a.to_parent, a.identity_mask, a.depth)
            == (b.center_local_index, b.to_parent, b.identity_mask, b.depth))


def count_walks_brute(g: Graph, start: int, end: int, length: int) -> int:
    """Number of length-`length` walks from start to end, by enumeration."""
    if length == 0:
        return int(start == end)
    total = 0
    adjacency = neighbor_lists(g)
    frontier = [(start, 0)]
    while frontier:
        node, steps = frontier.pop()
        if steps == length:
            total += int(node == end)
            continue
        for w in adjacency[node]:
            frontier.append((w, steps + 1))
    return total


def dense_power_diag(g: Graph, k: int) -> np.ndarray:
    """Diag(A^j) for j = 1..k via dense integer matrix powers."""
    n = g.num_nodes
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edge_list(g):
        A[u, v] = 1
        A[v, u] = 1
    out = np.zeros((n, k), dtype=np.int64)
    P = np.eye(n, dtype=np.int64)
    for j in range(k):
        P = P @ A
        out[:, j] = np.diag(P)
    return out


def walk_counts_exact(g: Graph, k: int) -> np.ndarray:
    """Diag(A^j) for j = 1..k via dense matrix powers of Python integers
    (dtype=object), which never overflow."""
    n = g.num_nodes
    A = np.zeros((n, n), dtype=object)
    for u, v in edge_list(g):
        A[u, v] = A[v, u] = 1
    out = np.zeros((n, k), dtype=object)
    P = np.eye(n, dtype=np.int64).astype(object)
    for j in range(k):
        P = P.dot(A)
        out[:, j] = np.diag(P)
    return out


def floyd_warshall(g: Graph) -> np.ndarray:
    n = g.num_nodes
    INF = np.iinfo(np.int64).max // 4
    D = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(D, 0)
    for u, v in edge_list(g):
        D[u, v] = 1
        D[v, u] = 1
    for m in range(n):
        D = np.minimum(D, D[:, m][:, None] + D[m, :][None, :])
    return D


def bfs_distances(g: Graph, source: int, cap: int) -> list[int | None]:
    """Hop distances from ``source`` by a queue-based search, one node at a
    time; None for nodes farther than ``cap``."""
    dist: list[int | None] = [None] * g.num_nodes
    dist[source] = 0
    adjacency = neighbor_lists(g)
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if dist[u] == cap:
            continue
        for w in adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def triangle_count_at(g: Graph, v: int) -> int:
    adjacency = neighbor_lists(g)
    nbrs = adjacency[v]
    return sum(
        1
        for i, a in enumerate(nbrs)
        for b in nbrs[i + 1:]
        if b in adjacency[a]
    )


def clustering_direct(g: Graph, v: int) -> float:
    """Clustering coefficient by direct neighbor-pair edge counting."""
    adjacency = neighbor_lists(g)
    nbrs = adjacency[v]
    deg = len(nbrs)
    if deg < 2:
        return 0.0
    nbr_set = set(nbrs)
    links = sum(1 for u in nbrs for w in adjacency[u] if w > u and w in nbr_set)
    return links / (deg * (deg - 1) / 2)


def bin_index(value: float, edges: tuple[float, ...]) -> int:
    """Index of the half-open bin [edges[i], edges[i+1]) holding value, by a
    scan from the bottom; the top bin is closed and values beyond it clamp
    into it."""
    nbins = len(edges) - 1
    for i in range(nbins):
        if value < edges[i + 1]:
            return i
    return nbins - 1


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
    adjacency = neighbor_lists(g)
    for u in range(n):
        for c in range(d):
            for w in sorted(adjacency[u]):
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


def union_by_adjacency(graphs) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the disjoint union of ``graphs``, read off
    their neighbor lists one neighbor at a time: node v of a graph is
    union row v plus the node count of the graphs before it."""
    indptr, indices, offset = [0], [], 0
    for g in graphs:
        for nbrs in neighbor_lists(g):
            indices.extend(offset + w for w in nbrs)
            indptr.append(len(indices))
        offset += g.num_nodes
    return np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64)


def ego_by_induced_edges(g: Graph, center: int, k: int,
                         identity_at: int | None = None) -> EgoNet:
    """The K-hop ego net as build_graph over the induced edge list, with the
    ball and each node's depth read off Floyd-Warshall distances."""
    dist = floyd_warshall(g)[center]
    ball = [int(v) for v in np.flatnonzero(dist <= k)]
    local = {p: i for i, p in enumerate(ball)}
    edges = [(local[u], local[v]) for u, v in edge_list(g) if u in local and v in local]
    feats = None if g.node_features is None else g.node_features[ball, :]
    identity = center if identity_at is None else identity_at
    return EgoNet(build_graph(len(ball), edges, feats), local[center], tuple(ball),
                  tuple(p == identity for p in ball), tuple(int(dist[p]) for p in ball))


def isomorphic_brute(g1: Graph, g2: Graph) -> bool:
    """Isomorphism by trying every node permutation (a handful of nodes)."""
    if g1.num_nodes != g2.num_nodes or g1.num_edges != g2.num_edges:
        return False
    edges1, edges2 = edge_list(g1), set(edge_list(g2))
    return any(
        all((min(p[u], p[v]), max(p[u], p[v])) in edges2 for u, v in edges1)
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


def d_regular_switching_sequential(n: int, d: int, seed: int
                                   ) -> tuple[tuple[tuple[int, int], ...], int]:
    """The switching sampler checked one shuffle at a time, recounting
    everything from the stubs at every step: shuffle the stubs in place
    until a row has no self-loop and no edge of multiplicity 3 or more, and
    at most D double edges. A row without doubles wins; a row with doubles
    is switched, one double at a time, on the stream PCG64(seed).jumped(),
    and any rejection discards it. Each switching draws the double (in
    (lo, hi) order), two bits, and two stub positions; f-rejects unless
    v1..v6 are distinct, v3v5 and v4v6 single, and v1v3, v1v4, v2v5, v2v6
    absent; swaps v2 with v3 and v2 with v4; then accepts with probability
    S_min/|S| and c_min/N2, both counted by listing every star. Returns the
    sorted edges and the number of rows discarded."""
    full, conf, loss = n * d * (d - 1), (3 * d + 5) * d * (d - 1), 2 * (4 * d - 6)
    most = 0 if d < 3 or full - conf < 1 else (full - conf - 1) // loss + 1
    rng = np.random.Generator(np.random.PCG64(seed))
    switch_rng = None
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    restarts = 0
    while True:
        rng.shuffle(stubs)
        cells = stubs.tolist()
        counts = pair_counts(cells)
        doubles = sum(1 for k in counts.values() if k == 2)
        if (all(cells[i] != cells[i + 1] for i in range(0, len(cells), 2))
                and all(k <= 2 for k in counts.values()) and doubles <= most):
            if doubles:
                if switch_rng is None:
                    switch_rng = np.random.Generator(np.random.PCG64(seed).jumped())
                cells = _switch_sequential(cells, n, full, conf, loss, switch_rng)
            if cells is not None:
                return tuple(sorted(pair_counts(cells))), restarts
        restarts += 1


def pair_counts(cells: list[int]) -> dict[tuple[int, int], int]:
    """Each edge (lo, hi) of a stub arrangement with its multiplicity."""
    counts: dict[tuple[int, int], int] = {}
    for a, b in zip(cells[0::2], cells[1::2]):
        edge = (a, b) if a < b else (b, a)
        counts[edge] = counts.get(edge, 0) + 1
    return counts


def _switch_sequential(cells, n, full, conf, loss, rng):
    """The switchings of d_regular_switching_sequential: the simple
    arrangement, or None at the first rejection."""
    cells = list(cells)
    while True:
        counts = pair_counts(cells)
        doubles = sorted(e for e, k in counts.items() if k == 2)
        m = len(doubles)
        if m == 0:
            return cells

        def mult(a, b):
            return counts.get((min(a, b), max(a, b)), 0)

        lo, hi = doubles[int(rng.integers(m))]
        bits = int(rng.integers(4))
        v1, v2 = (hi, lo) if bits & 1 else (lo, hi)
        slots = [i for i in range(0, len(cells), 2) if sorted(cells[i:i + 2]) == [lo, hi]]
        if bits & 2:
            slots.reverse()
        x2, x4 = (i if cells[i] == v2 else i + 1 for i in slots)
        p5, p7 = int(rng.integers(len(cells))), int(rng.integers(len(cells)))
        v3, v5, v4, v6 = cells[p5], cells[p5 ^ 1], cells[p7], cells[p7 ^ 1]
        if (len({v1, v2, v3, v4, v5, v6}) < 6 or mult(v3, v5) != 1 or mult(v4, v6) != 1
                or mult(v1, v3) or mult(v1, v4) or mult(v2, v5) or mult(v2, v6)):
            return None
        cells[x2], cells[p5] = cells[p5], cells[x2]
        cells[x4], cells[p7] = cells[p7], cells[x4]
        counts = pair_counts(cells)
        single = [[w for w in range(n) if mult(v, w) == 1] for v in range(n)]
        near = [{w for w in range(n) if mult(v, w)} for v in range(n)]
        stars = [(c, w1, w2) for c in range(n) for w1 in single[c] for w2 in single[c]
                 if w1 != w2]
        s_min = full - loss * (m - 1)
        assert s_min <= len(stars)
        if rng.random() * len(stars) >= s_min:
            return None
        n2 = sum(1 for c, w1, w2 in stars
                 if c != v1 and c not in near[v1]
                 and w1 not in {v1, v3, v4} | near[v3] and w2 not in {v1, v3, v4} | near[v4])
        c_min = s_min - conf
        assert 1 <= c_min <= n2
        if rng.random() * n2 >= c_min:
            return None


def nonisomorphic_pool_sequential(n: int, d: int, graph_count: int,
                                  seed: int) -> tuple[list[Graph], int]:
    """The pool loop one candidate at a time: draw candidate i from
    child_seed(seed, i), keep it unless it is isomorphic (by brute force) to
    a kept graph, and give up after 50 draws per requested graph. Returns
    the pool and the number of rejected candidates."""
    pool: list[Graph] = []
    regen = index = 0
    budget = max(graph_count, 1) * 50
    while len(pool) < graph_count:
        if index >= budget:
            raise CapabilityError(
                f"could not assemble {graph_count} non-isomorphic graphs "
                f"within {budget} attempts (n={n}, d={d})"
            )
        g = gen_d_regular(n, d, child_seed(seed, index))
        index += 1
        if any(isomorphic_brute(g, kept) for kept in pool):
            regen += 1
        else:
            pool.append(g)
    return pool, regen


def spd_pairs_sequential(graphs, pairs_per_graph: int, seed: int):
    """The SPD pair sampler with Python pools: per graph, every pair u < v
    goes into the pool of its distance class (1, 2, 3, 4, >= 5 or
    disconnected), read off Floyd-Warshall. Each class draws its share
    without replacement, the shortfall is drawn from the leftovers, and the
    chosen (u, v, class) triples are sorted. Returns the pairs of each graph
    and the warnings for empty classes (TaskData.skipped), in order."""
    classes = 5
    out, warnings = [], []
    for gi, g in enumerate(graphs):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, gi)))
        D = floyd_warshall(g)
        by_class: list[list[tuple[int, int]]] = [[] for _ in range(classes)]
        for u in range(g.num_nodes):
            for v in range(u + 1, g.num_nodes):
                by_class[min(int(D[u, v]), classes) - 1].append((u, v))
        quota, extra = divmod(pairs_per_graph, classes)
        chosen: list[tuple[int, int, int]] = []
        leftovers: list[tuple[int, int, int]] = []
        for c, pool in enumerate(by_class):
            want = quota + (1 if c < extra else 0)
            if not pool:
                if want:
                    warnings.append(f"graph {gi}: no pairs at distance class {c}, "
                                    "class skipped")
                continue
            idx = rng.choice(len(pool), size=min(want, len(pool)), replace=False)
            picked = {int(i) for i in idx}
            chosen.extend((pool[i][0], pool[i][1], c) for i in sorted(picked))
            leftovers.extend(
                (pool[i][0], pool[i][1], c) for i in range(len(pool)) if i not in picked
            )
        short = pairs_per_graph - len(chosen)
        if short > 0 and leftovers:
            idx = rng.choice(len(leftovers), size=min(short, len(leftovers)), replace=False)
            chosen.extend(leftovers[int(i)] for i in sorted(idx))
        out.append(sorted(chosen))
    return out, warnings


def ego_layout_per_graph(graphs, anchors, k: int):
    """The ego layout of an id_full make_batch one graph at a time: one
    one-graph ego_union per graph, stacked. Returns (deg, nbr, identity, depth, node), with nbr as
    union rows and node as ids in the disjoint union of the graphs."""
    if anchors is None:
        anchors = [None] * len(graphs)
    none = np.zeros(0, dtype=np.int64)
    deg, nbr, identity, depth, node = [none], [none], [none > 0], [none], [none]
    rows = nodes = 0
    for g, pairs in zip(graphs, anchors):
        union = ego_union([g], [pairs], k, (g.indptr, g.indices))
        deg.append(union.deg)
        nbr.append(rows + union.nbr)
        identity.append(union.identity)
        depth.append(union.depth)
        node.append(nodes + union.parent)
        rows += union.parent.size
        nodes += g.num_nodes
    return tuple(np.concatenate(a) for a in (deg, nbr, identity, depth, node))


def spd_task_per_graph(graphs, pairs_per_graph: int, seed: int):
    """tasks.make_spd_task one graph at a time: an n x n class matrix from
    a one-graph bfs_blocks search, pools from np.flatnonzero per class and
    leftovers from np.delete. Returns the (u, v, class) pairs of each graph
    and the warnings for empty classes (TaskData.skipped), in order."""
    classes_count = 5
    none = np.zeros(0, dtype=np.int64)
    out, warnings = [], []
    for gi, g in enumerate(graphs):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, gi)))
        n = g.num_nodes
        dist = np.full(n * n, classes_count, dtype=np.int8)
        for lo, cells, depth in bfs_blocks([g], np.arange(n), classes_count - 1):
            dist[lo * n + cells] = depth
        u, v = np.triu_indices(n, 1)
        classes = (dist.reshape(n, n) - 1)[u, v]
        quota = pairs_per_graph // classes_count
        extra = pairs_per_graph % classes_count
        chosen, leftovers = [none], [none]
        for c in range(classes_count):
            pool = np.flatnonzero(classes == c)
            want = quota + (1 if c < extra else 0)
            if not pool.size:
                if want:
                    warnings.append(f"graph {gi}: no pairs at distance class {c}, "
                                    "class skipped")
                continue
            idx = rng.choice(pool.size, size=min(want, pool.size), replace=False)
            chosen.append(pool[idx])
            leftovers.append(np.delete(pool, idx))
        picked, rest = np.concatenate(chosen), np.concatenate(leftovers)
        short = pairs_per_graph - picked.size
        if short > 0 and rest.size:
            idx = rng.choice(rest.size, size=min(short, rest.size), replace=False)
            picked = np.concatenate([picked, rest[idx]])
        picked = np.sort(picked)
        out.append(list(zip(u[picked].tolist(), v[picked].tolist(),
                            classes[picked].tolist())))
    return out, warnings


# ---------------------------------------------------------------------------
# dense reference engine: the layer equations of idgnn.nn's docstring, run
# one graph or ego net at a time on dense adjacency, every row at every
# layer, with gradients from a generic reverse-mode tape of dense operations


class _Var:
    """A dense value in a reverse-mode graph. ``links`` pairs each input
    with the map from this value's gradient to that input's share."""

    _created = count()

    def __init__(self, value, links=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.links = links
        self.grad = np.zeros_like(self.value)
        self.order = next(_Var._created)  # inputs are created before users


def _backprop(out: _Var, G: np.ndarray) -> None:
    """Accumulate d(sum(G * out)) / d(v) into v.grad for every v out reads."""
    seen, stack = {}, [out]
    while stack:
        v = stack.pop()
        if id(v) not in seen:
            seen[id(v)] = v
            stack.extend(parent for parent, _ in v.links)
    out.grad = out.grad + G
    for v in sorted(seen.values(), key=lambda v: -v.order):
        for parent, vjp in v.links:
            parent.grad = parent.grad + vjp(v.grad)


def _matmul(a: _Var, b: _Var) -> _Var:
    return _Var(a.value @ b.value, ((a, lambda G: G @ b.value.T),
                                    (b, lambda G: a.value.T @ G)))


def _affine(h: _Var, w: _Var, b: _Var) -> _Var:
    """h @ w.T + b with b added to every row."""
    return _Var(h.value @ w.value.T + b.value,
                ((h, lambda G: G @ w.value), (w, lambda G: G.T @ h.value),
                 (b, lambda G: G.sum(axis=0))))


def _add(a: _Var, b: _Var) -> _Var:
    return _Var(a.value + b.value, ((a, lambda G: G), (b, lambda G: G)))


def _one_plus_times(eps: _Var, h: _Var) -> _Var:
    """(1 + eps) * h for a scalar eps."""
    return _Var((1.0 + eps.value) * h.value,
                ((eps, lambda G: np.sum(G * h.value)),
                 (h, lambda G: (1.0 + eps.value) * G)))


def _relu(a: _Var) -> _Var:
    """max(a, 0); its subgradient at 0 is 0."""
    return _Var(np.maximum(a.value, 0.0), ((a, lambda G: G * (a.value > 0.0)),))


def _concat(a: _Var, b: _Var) -> _Var:
    d = a.value.shape[1]
    return _Var(np.concatenate([a.value, b.value], axis=1),
                ((a, lambda G: G[:, :d]), (b, lambda G: G[:, d:])))


def _where_rows(mask: np.ndarray, a: _Var, b: _Var) -> _Var:
    """Row i of a where mask[i], else row i of b."""
    m = mask[:, None]
    return _Var(np.where(m, a.value, b.value),
                ((a, lambda G: np.where(m, G, 0.0)), (b, lambda G: np.where(m, 0.0, G))))


def _max_aggregate(M: _Var, g: Graph) -> _Var:
    S, src = max_aggregate_naive(M.value, g)
    n = M.value.shape[0]
    return _Var(S, ((M, lambda G: max_scatter_naive(G, src, n)),))


def _take_rows(a: _Var, rows: list[int]) -> _Var:
    def vjp(G):
        out = np.zeros_like(a.value)
        for i, r in enumerate(rows):
            out[r] += G[i]
        return out
    return _Var(a.value[rows], ((a, vjp),))


def _dense_layer(cfg, p: dict, i: int, g: Graph, H: _Var, identity) -> _Var:
    """One layer on graph g, all rows, from the docstring equations."""
    n = g.num_nodes
    A = np.zeros((n, n))
    for u, v in edge_list(g):
        A[u, v] = A[v, u] = 1.0
    deg = A.sum(axis=1)
    pre = f"layers.{i}."
    msg1 = "msg1" if cfg.variant == "id_full" else "msg0"
    M = _where_rows(np.array(identity, dtype=bool),
                    _affine(H, p[pre + msg1 + "_weight"], p[pre + msg1 + "_bias"]),
                    _affine(H, p[pre + "msg0_weight"], p[pre + "msg0_bias"]))
    if cfg.flavor == "gcn":
        d = 1.0 / np.sqrt(deg + 1.0)
        return _relu(_matmul(_Var(d[:, None] * (A + np.eye(n)) * d[None, :]), M))
    if cfg.flavor == "sage":
        Mr = _relu(M)
        if cfg.aggregation == "max":
            S = _max_aggregate(Mr, g)
        elif cfg.aggregation == "mean":
            S = _matmul(_Var(A / np.maximum(deg, 1.0)[:, None]), Mr)
        else:
            S = _matmul(_Var(A), Mr)
        Z = _concat(S, H)
        return _relu(_affine(Z, p[pre + "update_weight"], p[pre + "update_bias"]))
    Z = _add(_one_plus_times(p[pre + "gin_eps"], H), _matmul(_Var(A), M))
    hidden = _relu(_affine(Z, p[pre + "update_weight"], p[pre + "update_bias"]))
    return _relu(_affine(hidden, p[pre + "mlp2_weight"], p[pre + "mlp2_bias"]))


def dense_reference(model, graphs, xs, anchors, G_rows: np.ndarray):
    """Row embeddings of nn.make_batch(model, graphs, xs, anchors), and the
    gradients of sum(G_rows * embeddings): (H, parameter grads by name,
    input grads stacked like the batch's input rows).

    Plain and id_fast models run each whole graph; id_full models run the
    ego net of each anchor, read off Floyd-Warshall distances, with the
    identity mask of its identity node (all false outside the ball).
    """
    cfg = model.config
    units = []  # (graph, local inputs, identity mask, embedded rows)
    for g, x, pairs in zip(graphs, xs, anchors or [None] * len(graphs)):
        if cfg.variant != "id_full":
            units.append((g, x, [False] * g.num_nodes, list(range(g.num_nodes))))
            continue
        for u, v in [(v, v) for v in range(g.num_nodes)] if pairs is None else pairs:
            ego = ego_by_induced_edges(g, u, cfg.num_layers, identity_at=v)
            units.append((ego.subgraph, x[list(ego.to_parent)], ego.identity_mask,
                          [ego.center_local_index]))
    params = {name: _Var(arr) for name, arr in model.params.items()}
    H_rows, G_x, start = [], [], 0
    for g, x, identity, rows in units:
        x_var = _Var(x)
        H = x_var
        for i in range(cfg.num_layers):
            H = _dense_layer(cfg, params, i, g, H, identity)
        out = _take_rows(H, rows)
        _backprop(out, G_rows[start:start + len(rows)])
        start += len(rows)
        H_rows.append(out.value)
        G_x.append(x_var.grad)
    empty_h, empty_x = np.zeros((0, cfg.hidden_dim)), np.zeros((0, cfg.input_dim))
    return (np.concatenate([empty_h] + H_rows),
            {name: var.grad for name, var in params.items()},
            np.concatenate([empty_x] + G_x))


def build_graph_per_edge(num_nodes: int, edges, node_features=None):
    """``(num_nodes, edges, adjacency, node_features)`` of a graph built one
    edge at a time: a set of canonical edges, sorted, then per-node sorted
    neighbor lists. On integer pairs, raises what graph.build_graph raises."""
    if num_nodes < 0:
        raise InputError(f"num_nodes must be nonnegative, got {num_nodes}")
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        for w in (u, v):
            if not 0 <= w < num_nodes:
                raise InputError(f"edge endpoint {w!r} out of range for graph with "
                                 f"{num_nodes} nodes")
        if u != v:
            canon.add((min(u, v), max(u, v)))
    edge_tuple = tuple(sorted(canon))
    nbrs = [[] for _ in range(num_nodes)]
    for u, v in edge_tuple:
        nbrs[u].append(v)
        nbrs[v].append(u)
    feats = None
    if node_features is not None:
        feats = np.asarray(node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != num_nodes:
            raise InputError(
                f"node_features must have {num_nodes} rows, got shape {feats.shape}")
    return num_nodes, edge_tuple, tuple(tuple(sorted(ns)) for ns in nbrs), feats


def _json_int(value, what: str) -> int:
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _record_per_edge(obj):
    try:
        n, edges = _json_int(obj["num_nodes"], "num_nodes"), obj["edges"]
        if n > MAX_NODES:
            raise CapabilityError(f"num_nodes {n} is above the limit of {MAX_NODES}")
        for u, v in edges:
            if type(u) is not int or type(v) is not int:
                raise ParseError(f"edge endpoints must be integers, got {[u, v]!r}")
        graph = build_graph_per_edge(n, edges, obj.get("node_features"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad graph object: {exc}") from exc
    label, node_labels = obj.get("label"), obj.get("node_labels")
    try:
        label = None if label is None else _json_int(label, "label")
        node_labels = (None if node_labels is None
                       else [_json_int(x, "node label") for x in node_labels])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad label: {exc}") from None
    if node_labels is not None and len(node_labels) != n:
        raise ParseError(f"{len(node_labels)} node_labels for {n} nodes")
    return graph + (label, node_labels)


def load_jsonl_per_line(path: str) -> list[tuple]:
    """datasets.load_jsonl one line at a time, each graph built one edge at
    a time: per record ``(num_nodes, edges, adjacency, node_features, label,
    node_labels)``. Raises the first bad line's error as load_jsonl does."""
    records = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", lineno) from exc
            except UnicodeDecodeError as exc:
                raise ParseError(f"invalid UTF-8: {exc.reason}", lineno) from None
            try:
                records.append(_record_per_edge(obj))
            except ParseError as exc:
                raise ParseError(str(exc), lineno) from exc
            except CapabilityError as exc:
                raise CapabilityError(f"line {lineno}: {exc}") from exc
    return records
