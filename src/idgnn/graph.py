"""Immutable undirected simple graphs, BFS, and ego-network extraction.

Node ids are dense 0-based integers. Graphs are frozen after construction
and safe to share across threads; all functions here are pure.

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
from functools import cached_property

import numpy as np

from .errors import InputError

# Sources searched together in one bfs_blocks block are limited so that the
# block's visited table, one byte per (source, node) cell with as many cells
# per source as the largest graph has nodes, stays within this many cells.
_BFS_BLOCK_CELLS = 1 << 21


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in compressed adjacency form.

    ``edges`` holds each edge once as ``(u, v)`` with ``u < v``;
    ``adjacency[v]`` is the ascending tuple of neighbors of ``v``.
    ``node_features`` (if present) is a read-only float array with one row
    per node.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    node_features: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``: the adjacency lists as int64 CSR arrays,
        built on first use."""
        deg = np.fromiter(map(len, self.adjacency), dtype=np.int64,
                          count=self.num_nodes)
        indptr = np.concatenate([[0], np.cumsum(deg)])
        indices = np.fromiter((w for nbrs in self.adjacency for w in nbrs),
                              dtype=np.int64, count=int(indptr[-1]))
        return indptr, indices


def union_csr(graphs) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the disjoint union of ``graphs``: their
    cached CSR arrays, each graph's node ids shifted by the node count of
    the graphs before it."""
    csrs = [g.csr for g in graphs]
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


def _check_node(n: int, v: int, name: str = "node") -> None:
    if not (isinstance(v, (int, np.integer)) and 0 <= v < n):
        raise InputError(f"{name} {v!r} out of range for graph with {n} nodes")


def build_graph(num_nodes: int, edges, node_features=None) -> Graph:
    """Construct a Graph, dropping self-loops and collapsing duplicate edges.

    Raises InputError on out-of-range endpoints or a feature row-count
    mismatch.
    """
    if num_nodes < 0:
        raise InputError(f"num_nodes must be nonnegative, got {num_nodes}")
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            _check_node(num_nodes, u, "edge endpoint")
            _check_node(num_nodes, v, "edge endpoint")
        if u == v:
            continue
        canon.add((u, v) if u < v else (v, u))
    edge_tuple = tuple(sorted(canon))

    nbrs: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in edge_tuple:
        nbrs[u].append(v)
        nbrs[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in nbrs)

    feats = None
    if node_features is not None:
        feats = np.asarray(node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != num_nodes:
            raise InputError(
                f"node_features must have {num_nodes} rows, got shape {feats.shape}"
            )
        feats.setflags(write=False)

    return Graph(num_nodes, edge_tuple, adjacency, feats)


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
    """Sources per bfs_blocks block when the largest graph has ``w`` nodes."""
    return max(1, _BFS_BLOCK_CELLS // max(w, 1))


def bfs_blocks(graphs, sources, cap: int, csr=None):
    """Hop distances, up to ``cap``, from every node of ``sources``,
    searched level by level from many sources of many graphs at once.

    Sources are node ids of the disjoint union of ``graphs`` as union_csr
    lays it out (repeats allowed); ``csr`` is union_csr(graphs) when the
    caller has it. Let ``w`` be the node count of the largest graph. Sources
    are taken in consecutive blocks, as many as keep a block's visited
    table, ``w`` one-byte cells per source, within _BFS_BLOCK_CELLS cells.
    For each block this yields ``(lo, cells, depth)``: the block holds
    ``sources[lo:lo + b]``, and ``cells`` lists every (source i, node v)
    pair within ``cap`` hops as ``(i - lo) * w + v - f``, with ``f`` the
    first node of i's graph, ascending, so source-major with ascending node
    ids; for one graph that is ``(i - lo) * num_nodes + v``. ``depth`` is
    the hop distance of each. A level expands the whole frontier of the
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
    for lo in range(0, sources.size, per_block):
        block = sources[lo:lo + per_block]
        # the cell of (block source j, union node v) is v + shift[j]
        shift = np.arange(block.size) * w - first[lo:lo + per_block]
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
    than an error; see EgoNet. This is the one-anchor ego_union: each local
    neighbor list is the parent's ascending list filtered to the ball, so it
    is already canonical, node features are sliced from the parent, and the
    BFS distances are kept as ``depth``.
    """
    identity = center if identity_at is None else identity_at
    union = ego_union([g], [[(center, identity)]], k, g.csr)
    parents = tuple(union.parent.tolist())
    nbr, ends = union.nbr.tolist(), np.cumsum(union.deg).tolist()
    adjacency = tuple(tuple(nbr[end - d:end]) for end, d in zip(ends, union.deg.tolist()))
    edges = tuple((i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j)
    feats = None
    if g.node_features is not None:
        feats = g.node_features[union.parent, :]
        feats.setflags(write=False)
    return EgoNet(
        subgraph=Graph(len(parents), edges, adjacency, feats),
        center_local_index=parents.index(center),
        to_parent=parents,
        identity_mask=tuple(union.identity.tolist()),
        depth=tuple(union.depth.tolist()),
    )


def relabel_graph(g: Graph, perm) -> Graph:
    """Relabel nodes by a permutation: new id of node v is ``perm[v]``."""
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(g.num_nodes)):
        raise InputError("perm is not a permutation of the node ids")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    feats = None
    if g.node_features is not None:
        inv = np.empty(g.num_nodes, dtype=np.int64)
        inv[perm] = np.arange(g.num_nodes)
        feats = g.node_features[inv, :]
    return build_graph(g.num_nodes, edges, feats)
