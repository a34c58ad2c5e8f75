"""Immutable undirected simple graphs, BFS, and ego-network extraction.

Node ids are dense 0-based integers. A graph is its read-only CSR arrays
and nothing else, built once and never added to, so graphs are safe to
share across threads; they compare by identity. All functions here are
pure. There is one canonicalizer, ``build_graphs``, which builds the CSR
arrays of many graphs from their edge lists with one sort; ``build_graph``
is its one-graph call.

There is one BFS, ``bfs_blocks``: a level-synchronous search from many
sources at once over the CSR arrays of a disjoint union of graphs
(``union_csr``), run on blocks of sources, so a whole split of graphs takes
one multi-source BFS, not one per graph. One ego-net builder sits on top of
it, ``ego_union``, which lays out the ego nets of many anchors of many
graphs as one disjoint union of numpy arrays; ``extract_ego`` is its
one-anchor view.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InputError

# Sources searched together in one bfs_blocks block are limited so that the
# block's visited table, one byte per (source, node) cell with as many cells
# per source as the largest graph has nodes, stays within this many cells,
# and so that the neighbor entries the block can expand, its sources' graphs'
# directed edge counts summed, stay within _BFS_BLOCK_ENTRIES: the search's
# per-level arrays grow with these, not with the visited table.
_BFS_BLOCK_CELLS = 1 << 21
_BFS_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected simple graph, stored as CSR arrays.

    ``indptr`` and ``indices`` are read-only int64 arrays: node v's
    neighbors are ``indices[indptr[v]:indptr[v + 1]]``, ascending, each
    edge listed from both ends. ``node_features`` (if present) is a
    read-only float array with one row per node. A graph holds nothing
    else, and graphs compare by identity.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    node_features: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.node_features):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()


def union_csr(graphs) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the disjoint union of ``graphs``: their
    CSR arrays, each graph's node ids shifted by the node count of the
    graphs before it."""
    csrs = [(g.indptr, g.indices) for g in graphs]
    sizes = np.array([indptr.size - 1 for indptr, _ in csrs], dtype=np.int64)
    nnz = np.array([indices.size for _, indices in csrs], dtype=np.int64)
    indptr = np.concatenate([np.zeros(1, dtype=np.int64)] + [p[1:] for p, _ in csrs])
    indptr[1:] += np.repeat(np.cumsum(nnz) - nnz, sizes)
    indices = np.concatenate([np.zeros(0, dtype=np.int64)] + [i for _, i in csrs])
    indices += np.repeat(np.cumsum(sizes) - sizes, nnz)
    return indptr, indices


@dataclass(frozen=True)
class EgoNet:
    """Induced K-hop subgraph around a center node.

    ``to_parent[i]`` is the parent-graph id of local node ``i``; local ids
    preserve the relative order of parent ids. ``depth[i]`` is the hop
    distance of local node ``i`` from the center, in the parent graph and in
    the subgraph alike. ``identity_mask`` is true at the identity-colored
    node. When the requested conditioning node lies outside the K-hop ball
    the mask is all false (at most one true overall), so downstream message
    passing degrades to the plain, uncolored scheme.
    """

    subgraph: Graph
    center_local_index: int
    to_parent: tuple[int, ...]
    identity_mask: tuple[bool, ...]
    depth: tuple[int, ...]


def _is_integer(w) -> bool:
    """Whether ``w`` is a Python or numpy integer; booleans are not."""
    return type(w) is not bool and isinstance(w, (int, np.integer))


def _check_node(n: int, v: int, name: str = "node") -> None:
    if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
        raise InputError(f"{name} {v!r} out of range for graph with {n} nodes")


def _check_count(n) -> None:
    if not _is_integer(n):
        raise InputError(f"num_nodes must be an integer, got {n!r}")
    if n < 0:
        raise InputError(f"num_nodes must be nonnegative, got {n}")
    if n >= 2**63:
        raise InputError(f"num_nodes {n} is past the 64-bit integer range")


def _int64(values) -> tuple[np.ndarray, np.ndarray | None]:
    """``values`` as a flat int64 array, and None; or, when some value is
    not an integer of the int64 range, also the values as objects, each
    such value read as -1 in the array. Floats, strings and booleans are
    not integers, so they are never cast (numpy reads True as 1 in a list
    of integers)."""
    a = np.asarray(values)
    exact = a.dtype.kind == "i" or a.dtype.kind == "u" and not (a.size and a.max() >= 2**63)
    if exact and not (isinstance(values, (list, tuple)) and bool in map(type, values)):
        return a.astype(np.int64, copy=False).reshape(-1), None
    objs = np.asarray(values, dtype=object).reshape(-1)
    return np.array([w if _is_integer(w) and -2**63 <= w < 2**63 else -1 for w in objs],
                    dtype=np.int64), objs


def _feature_matrix(n: int, features) -> np.ndarray | None:
    """``features`` (None passes through) as a float64 copy, which a Graph
    may freeze; InputError unless it has ``n`` rows."""
    if features is None:
        return None
    f = np.array(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] != n:
        raise InputError(f"node_features must have {n} rows, got shape {f.shape}")
    return f


def build_graphs(num_nodes, edge_counts, u, v, node_features=None) -> list[Graph]:
    """Construct many graphs at once, dropping self-loops and collapsing
    duplicate edges.

    Graph i has ``num_nodes[i]`` nodes and ``edge_counts[i]`` edges; the
    integer arrays ``u`` and ``v`` hold the endpoints of graph 0's edges,
    then graph 1's, and so on, as node ids of their own graph.
    ``node_features`` is None or one feature matrix (or None) per graph.

    Every directed edge of every graph gets one key, its two endpoints as
    node ids of the disjoint union, and one sort of the keys gives every
    graph's CSR arrays, views of two arrays that the graphs share.

    Raises InputError when there is not one edge count (nor, if given, one
    feature matrix) per graph, a count is not a nonnegative integer, the
    counts do not sum to the number of edges, or ``u`` and ``v`` differ in
    length. Then it raises InputError for the first graph, in order, whose
    node count is not a nonnegative integer of the int64 range, whose
    endpoints include one that is not an integer in range (naming the first
    one in edge order, by its value; floats, strings and booleans are
    refused, not cast), or whose features have the wrong row count, checked
    in that order.
    """
    sizes, size_objs = _int64(num_nodes)
    counts, count_objs = _int64(edge_counts)
    (u, u_objs), (v, v_objs) = _int64(u), _int64(v)
    for name, given in ("edge count", counts), ("feature matrix", node_features):
        if given is not None and len(given) != sizes.size:
            raise InputError(f"need one {name} per graph, got {len(given)} for "
                             f"{sizes.size} graphs")
    if (counts < 0).any():  # a count that is not an int64 integer reads as -1
        i = int(np.argmax(counts < 0))
        w = int(counts[i]) if count_objs is None else count_objs[i]
        raise InputError(f"edge counts must be nonnegative integers, got {w!r}")
    num_edges = sum(counts.tolist())  # exact, as int64 sums may wrap
    if u.size != v.size or num_edges != u.size:
        raise InputError(f"edge counts sum to {num_edges}, with {u.size} first and "
                         f"{v.size} second endpoints")
    n_of = np.repeat(sizes, counts)
    bad = np.flatnonzero((u < 0) | (u >= n_of) | (v < 0) | (v >= n_of))
    negative = np.flatnonzero(sizes < 0)
    # the first graph with a bad node count (read as negative) or endpoint, if any
    first_bad = min(np.searchsorted(np.cumsum(counts), bad[:1], side="right").tolist()
                    + negative[:1].tolist() + [sizes.size])
    feats = [None] * sizes.size
    for i in range(first_bad if node_features is not None else 0):
        feats[i] = _feature_matrix(sizes[i], node_features[i])
    if first_bad < sizes.size:
        n = int(sizes[first_bad])
        _check_count(n if size_objs is None else size_objs[first_bad])
        e = bad[0]
        col, objs = (u, u_objs) if not 0 <= u[e] < n else (v, v_objs)
        w = col[e] if objs is None else objs[e]
        if not _is_integer(w):
            raise InputError(f"edge endpoints must be integers, got {w!r}")
        _check_node(n, int(w), "edge endpoint")
    starts = np.cumsum(sizes) - sizes
    total = int(sizes.sum())
    shift = np.repeat(starts, counts)
    a, b = u + shift, v + shift
    loop = a == b
    a, b = a[~loop], b[~loop]
    keys = np.concatenate([a * total + b, b * total + a])
    keys.sort()
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])] if keys.size else keys
    rows, cols = np.divmod(keys, max(total, 1))
    graph_of = np.repeat(np.arange(sizes.size), sizes)
    indices = cols - starts[graph_of][rows]
    ends = np.cumsum(np.bincount(rows, minlength=total))
    # graph i's indptr is indptr[starts[i] + i:][:n + 1], starting at its 0
    indptr = np.zeros(total + sizes.size, dtype=np.int64)
    before = np.concatenate([[0], ends])[starts]
    indptr[np.arange(total) + graph_of + 1] = ends - before[graph_of]
    out = []
    for i, (n, s, lo) in enumerate(zip(sizes.tolist(), starts.tolist(), before.tolist())):
        ptr = indptr[s + i:s + i + n + 1]
        out.append(Graph(n, ptr, indices[lo:lo + int(ptr[-1])], feats[i]))
    return out


def build_graph(num_nodes: int, edges, node_features=None) -> Graph:
    """Construct one Graph (see build_graphs), dropping self-loops and
    collapsing duplicate edges. ``edges`` is any iterable of integer pairs:
    a list, tuple, set or generator of pairs, or an m x 2 integer array.

    Raises InputError when ``edges`` is not m x 2, and as build_graphs
    does on a bad node count, endpoint or feature matrix.
    """
    try:
        rows = list(edges)
        pairs = np.asarray(rows)
    except (TypeError, ValueError) as exc:
        raise InputError(f"edges must be integer pairs: {exc}") from None
    if pairs.shape[1:] != (2,) and pairs.shape != (0,):
        raise InputError(f"edges must be integer pairs, got shape {pairs.shape}")
    # each endpoint as given, not a common cast of them (True read as 1)
    listed = not isinstance(edges, np.ndarray)
    if pairs.dtype.kind not in "iu" or listed and bool in map(type, chain.from_iterable(rows)):
        pairs = np.asarray(rows, dtype=object)
    return build_graphs([num_nodes], [len(pairs)], *pairs.reshape(-1, 2).T,
                        [node_features])[0]


def _neighbors_of(indptr: np.ndarray, indices: np.ndarray,
                  nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ascending neighbor lists of ``nodes`` in the CSR
    arrays ``(indptr, indices)``, and the length of each list."""
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    offsets = np.repeat(start - (np.cumsum(count) - count), count)
    return indices[offsets + np.arange(offsets.size)], count


def _node_ids(ids, sizes, name: str) -> np.ndarray:
    """``ids`` as a flat int64 array; InputError unless every one is an
    integer in ``[0, sizes)``, where ``sizes`` is one node count or one per
    id."""
    ids = np.asarray(ids).reshape(-1)
    if ids.size and ids.dtype.kind not in "iu":
        raise InputError(f"{name} ids must be integers, got {ids.dtype}")
    bad = (ids < 0) | (ids >= sizes)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        _check_node(int(np.broadcast_to(sizes, ids.shape)[i]), int(ids[i]), name)
    return ids.astype(np.int64)


def _layout(graphs, csr) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The disjoint union of ``graphs`` as bfs_blocks searches it: its CSR
    arrays (``csr``, or union_csr(graphs) when None), and each graph's node
    count and first union node id."""
    indptr, indices = union_csr(graphs) if csr is None else csr
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    return indptr, indices, sizes, np.cumsum(sizes) - sizes


def _block_size(w: int) -> int:
    """Most sources per bfs_blocks block when the largest graph has ``w``
    nodes."""
    return max(1, _BFS_BLOCK_CELLS // max(w, 1))


def _blocks(entries: np.ndarray, per_block: int):
    """``(lo, hi)`` of consecutive blocks of sources, each of at most
    ``per_block`` sources whose ``entries`` sum to at most
    _BFS_BLOCK_ENTRIES, or of one source."""
    total = np.concatenate([[0], np.cumsum(entries)])
    lo = 0
    while lo < entries.size:
        fits = int(np.searchsorted(total, total[lo] + _BFS_BLOCK_ENTRIES, side="right")) - 1
        hi = max(lo + 1, min(lo + per_block, fits))
        yield lo, hi
        lo = hi


def bfs_blocks(graphs, sources, cap: int, csr=None):
    """Hop distances, up to ``cap``, from every node of ``sources``,
    searched level by level from many sources of many graphs at once.

    Sources are node ids of the disjoint union of ``graphs`` as union_csr
    lays it out (repeats allowed); ``csr`` is union_csr(graphs) when the
    caller has it. Let ``w`` be the node count of the largest graph. Sources
    are taken in consecutive blocks, as many as keep a block's visited
    table, ``w`` one-byte cells per source, within _BFS_BLOCK_CELLS cells
    and the directed edges of its sources' graphs within _BFS_BLOCK_ENTRIES
    (see _blocks). For each block this yields ``(lo, cells, depth)``: the
    block holds ``sources[lo:lo + b]``, and ``cells`` lists every (source
    i, node v) pair within ``cap`` hops as ``(i - lo) * w + v - f``, with
    ``f`` the first node of i's graph, ascending, so source-major with
    ascending node ids; for one graph that is ``(i - lo) * num_nodes + v``.
    ``depth`` is the hop distance of each. A level expands the whole frontier of the
    block at once: the neighbor lists of its cells, minus the cells already
    seen. A search never leaves its source's graph, so the cells of a
    source name nodes of its graph only.
    """
    if cap < 0:
        raise InputError(f"cap must be nonnegative, got {cap}")
    indptr, indices, sizes, starts = _layout(graphs, csr)
    sources = _node_ids(sources, sizes.sum(), "source")
    first = np.repeat(starts, sizes)[sources]
    w = int(sizes.max(initial=0))
    per_block = _block_size(w)
    seen = np.zeros(min(per_block, sources.size) * w, dtype=bool)
    entries = np.repeat(indptr[starts + sizes] - indptr[starts], sizes)[sources]
    for lo, hi in _blocks(entries, per_block):
        block = sources[lo:hi]
        # the cell of (block source j, union node v) is v + shift[j]
        shift = np.arange(block.size) * w - first[lo:hi]
        frontier = block + shift
        seen[frontier] = True
        levels = [frontier]
        for _ in range(cap):
            nodes = frontier - shift[frontier // w]
            nbrs, count = _neighbors_of(indptr, indices, nodes)
            reached = np.repeat(frontier - nodes, count) + nbrs
            reached = np.sort(reached[~seen[reached]])
            if not reached.size:
                break
            # sort and drop repeats: np.unique hashes integers, ten times slower here
            frontier = reached[np.concatenate([[True], reached[1:] != reached[:-1]])]
            seen[frontier] = True
            levels.append(frontier)
        cells = np.concatenate(levels)
        seen[cells] = False
        depth = np.repeat(np.arange(len(levels)), [lv.size for lv in levels])
        order = np.argsort(cells)
        yield lo, cells[order], depth[order]


@dataclass(frozen=True)
class EgoUnion:
    """The K-hop ego nets of anchors of several graphs, laid out as one
    disjoint union of rows: ego by ego in anchor order, and within an ego
    by ascending parent id (EgoNet's local order).

    Per row: ``parent`` (node id in the disjoint union of the graphs, as
    union_csr lays it out), ``depth`` (hops from the ego's center) and
    ``identity`` (the row is its ego's identity node). ``deg`` and ``nbr``
    hold the union's CSR: each row's parent neighbor list filtered to the
    ego's ball, as ascending union row ids.
    """

    parent: np.ndarray
    depth: np.ndarray
    identity: np.ndarray
    deg: np.ndarray
    nbr: np.ndarray


def ego_union(graphs, anchors, k: int, csr=None) -> EgoUnion:
    """The induced K-hop ego nets around the anchors of ``graphs``:
    ``anchors[i]`` lists graph i's ``(center, identity)`` pairs of node ids,
    or is None for every node anchored at itself, and ``anchors`` None
    anchors every node of every graph so. An identity outside its ball
    colors no row (see EgoNet). ``csr`` is union_csr(graphs) when the
    caller has it.

    One bfs_blocks search from all centers, shifted by the nodes of the
    graphs before theirs, finds every ball. Each row's neighbor list is its
    parent's, looked up among the rows of the same ego through a table of
    each block cell's row, filled and cleared as the search's visited table
    is: parent lists are ascending and union row ids grow with parent ids
    inside an ego, so every list stays ascending.
    """
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    indptr, indices, sizes, starts = _layout(graphs, csr)
    if anchors is None:
        centers = identities = np.arange(sizes.sum())
        first = np.repeat(starts, sizes)
    else:
        pairs = [np.repeat(np.arange(n), 2) if a is None else np.asarray(a)
                 for n, a in zip(sizes.tolist(), anchors)]
        counts = [p.size // 2 for p in pairs]
        n_of, first = np.repeat(sizes[:len(pairs)], counts), np.repeat(starts[:len(pairs)], counts)
        pairs = np.concatenate([np.zeros((0, 2), dtype=np.int64)]
                               + [p.reshape(-1, 2) for p in pairs if p.size])
        centers = first + _node_ids(pairs[:, 0], n_of, "center")
        identities = first + _node_ids(pairs[:, 1], n_of, "identity_at")
    w = int(sizes.max(initial=0))
    none = np.zeros(0, dtype=np.int64)
    parts, rows = [(none, none, none > 0, none, none)], 0
    row_of = np.full(min(_block_size(w), centers.size) * w, -1, dtype=np.int32)
    for lo, cells, depth in bfs_blocks(graphs, centers, k, (indptr, indices)):
        local = cells // w
        parent = cells - local * w + first[lo + local]
        nbrs, count = _neighbors_of(indptr, indices, parent)
        wanted = np.repeat(cells - parent, count) + nbrs
        row_of[cells] = np.arange(cells.size, dtype=np.int32)
        found = row_of[wanted]
        row_of[cells] = -1
        hit = found >= 0
        kept = np.concatenate([[0], np.cumsum(hit)])
        ends = np.cumsum(count)
        parts.append((parent, depth, parent == identities[lo + local],
                      kept[ends] - kept[ends - count], rows + found[hit].astype(np.int64)))
        rows += cells.size
    return EgoUnion(*(np.concatenate(arrays) for arrays in zip(*parts)))


def extract_ego(g: Graph, center: int, k: int, identity_at: int | None = None) -> EgoNet:
    """Extract the induced K-hop ego network around ``center``.

    The identity color goes to ``identity_at`` (default: the center). If the
    conditioning node falls outside the ball, the mask is all false rather
    than an error; see EgoNet. This is the one-anchor ego_union: its rows'
    ``deg`` and ``nbr`` are the subgraph's CSR arrays (each parent's
    ascending list filtered to the ball), node features are sliced from the
    parent, and the BFS distances are kept as ``depth``.
    """
    identity = center if identity_at is None else identity_at
    union = ego_union([g], [[(center, identity)]], k, (g.indptr, g.indices))
    parents = tuple(union.parent.tolist())
    feats = None
    if g.node_features is not None:
        feats = g.node_features[union.parent, :]
    return EgoNet(
        subgraph=Graph(len(parents), np.concatenate([[0], np.cumsum(union.deg)]),
                       union.nbr, feats),
        center_local_index=parents.index(center),
        to_parent=parents,
        identity_mask=tuple(union.identity.tolist()),
        depth=tuple(union.depth.tolist()),
    )


def relabel_graph(g: Graph, perm) -> Graph:
    """Relabel nodes by a permutation: new id of node v is ``perm[v]``."""
    try:
        perm = np.asarray(perm, dtype=np.int64)
        ok = perm.ndim == 1 and np.array_equal(np.sort(perm), np.arange(g.num_nodes))
    except (TypeError, ValueError, OverflowError):  # not integers, or past 64 bits
        ok = False
    if not ok:
        raise InputError("perm is not a permutation of the node ids")
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    feats = None if g.node_features is None else g.node_features[np.argsort(perm)]
    return build_graphs([g.num_nodes], [rows.size], perm[rows], perm[g.indices], [feats])[0]
