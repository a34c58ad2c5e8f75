"""Immutable undirected simple graphs, BFS, and ego-network extraction.

Node ids are dense 0-based integers. Graphs are frozen after construction
and safe to share across threads; all functions here are pure.

There is one BFS, ``bfs_blocks``: a level-synchronous search from many
sources at once over the graph's CSR arrays, run on blocks of sources, and
one ego-net builder on top of it, ``ego_union``, which lays out the ego nets
of many anchors of a graph as one disjoint union of numpy arrays;
``extract_ego`` is its one-anchor view.
``union_csr`` lays out whole graphs as one disjoint union of CSR arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError

# Sources searched together in one bfs_blocks block are limited so that the
# block's visited table, one byte per (source, node) cell, stays within
# this many cells.
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


def _check_node(g_or_n, v: int, name: str = "node") -> None:
    n = g_or_n if isinstance(g_or_n, int) else g_or_n.num_nodes
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


def _neighbors_of(g: Graph, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The concatenated ascending neighbor lists of ``nodes``, and the
    length of each list."""
    indptr, indices = g.csr
    start = indptr[nodes]
    count = indptr[nodes + 1] - start
    offsets = np.repeat(start - (np.cumsum(count) - count), count)
    return indices[offsets + np.arange(offsets.size)], count


def bfs_blocks(g: Graph, sources, cap: int):
    """Hop distances, up to ``cap``, from every node of ``sources`` (node
    ids, repeats allowed), searched level by level from many sources at
    once.

    Sources are taken in consecutive blocks, as many as keep a block's
    visited table within _BFS_BLOCK_CELLS cells. For each block this yields
    ``(lo, cells, depth)``: the block holds ``sources[lo:lo + b]``, and
    ``cells`` lists every (source, node) pair within ``cap`` hops as
    ``(i - lo) * num_nodes + node``, ascending, so source-major with
    ascending node ids; ``depth`` is the hop distance of each. A level
    expands the whole frontier of the block at once: the neighbor lists of
    its cells, minus the cells already seen.
    """
    if cap < 0:
        raise InputError(f"cap must be nonnegative, got {cap}")
    n = g.num_nodes
    sources = _node_ids(g, sources, "source")
    per_block = max(1, _BFS_BLOCK_CELLS // max(n, 1))
    seen = np.zeros(min(per_block, sources.size) * n, dtype=bool)
    for lo in range(0, sources.size, per_block):
        block = sources[lo:lo + per_block]
        frontier = np.arange(block.size) * n + block
        seen[frontier] = True
        levels = [frontier]
        for _ in range(cap):
            nodes = frontier % n
            nbrs, count = _neighbors_of(g, nodes)
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
    """The K-hop ego nets of several anchors of one graph, laid out as one
    disjoint union of rows: ego by ego in anchor order, and within an ego
    by ascending parent id (EgoNet's local order).

    Per row: ``parent`` (parent-graph id), ``depth`` (hops from the ego's
    center) and ``identity`` (the row is its ego's identity node). ``deg`` and ``nbr`` hold the union's CSR: each
    row's parent neighbor list filtered to the ego's ball, as ascending
    union row ids.
    """

    parent: np.ndarray
    depth: np.ndarray
    identity: np.ndarray
    deg: np.ndarray
    nbr: np.ndarray


def _node_ids(g: Graph, ids, name: str) -> np.ndarray:
    """``ids`` as a flat int64 array; InputError unless every one is an
    integer node id of ``g``."""
    ids = np.asarray(ids).reshape(-1)
    if ids.size and ids.dtype.kind not in "iu":
        raise InputError(f"{name} ids must be integers, got {ids.dtype}")
    bad = (ids < 0) | (ids >= g.num_nodes)
    if bad.any():
        _check_node(g, int(ids[bad][0]), name)
    return ids.astype(np.int64)


def ego_union(g: Graph, centers, identities, k: int) -> EgoUnion:
    """The induced K-hop ego nets around ``centers``, anchor i colored at
    ``identities[i]``; an identity outside its ball colors no row (see
    EgoNet).

    One bfs_blocks search from all centers finds every ball. Each row's
    neighbor list is its parent's, looked up among the rows of the same
    ego: parent lists are ascending and union row ids grow with parent ids
    inside an ego, so every list stays ascending.
    """
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    centers = _node_ids(g, centers, "center")
    identities = _node_ids(g, identities, "identity_at")
    none = np.zeros(0, dtype=np.int64)
    n, parts, rows = g.num_nodes, [(none, none, none > 0, none, none)], 0
    for lo, cells, depth in bfs_blocks(g, centers, k):
        local, parent = np.divmod(cells, n)
        nbrs, count = _neighbors_of(g, parent)
        wanted = np.repeat(cells - parent, count) + nbrs
        pos = np.searchsorted(cells, wanted)
        hit = cells[np.minimum(pos, cells.size - 1)] == wanted
        kept = np.concatenate([[0], np.cumsum(hit)])
        ends = np.cumsum(count)
        parts.append((parent, depth, parent == identities[lo + local],
                      kept[ends] - kept[ends - count], rows + pos[hit]))
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
    union = ego_union(g, [center], [identity], k)
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
