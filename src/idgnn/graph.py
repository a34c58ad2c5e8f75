"""Immutable undirected simple graphs, BFS, and ego-network extraction.

Node ids are dense 0-based integers. Graphs are frozen after construction
and safe to share across threads; all functions here are pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InputError


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

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return v in self.adjacency[u]

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]


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

    @property
    def identity_local_index(self) -> int | None:
        for i, flag in enumerate(self.identity_mask):
            if flag:
                return i
        return None


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


def bfs_distances(g: Graph, source: int, cap: int) -> list[int | None]:
    """Hop distances from ``source``; None for nodes farther than ``cap``."""
    _check_node(g, source, "source")
    if cap < 0:
        raise InputError(f"cap must be nonnegative, got {cap}")
    dist: list[int | None] = [None] * g.num_nodes
    dist[source] = 0
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        if dist[u] >= cap:
            continue
        for w in g.adjacency[u]:
            if dist[w] is None:
                dist[w] = dist[u] + 1
                frontier.append(w)
    return dist


def extract_ego(g: Graph, center: int, k: int, identity_at: int | None = None) -> EgoNet:
    """Extract the induced K-hop ego network around ``center``.

    The identity color goes to ``identity_at`` (default: the center). If the
    conditioning node falls outside the ball, the mask is all false rather
    than an error; see EgoNet. The subgraph is built straight from the
    ball: each local neighbor list is the parent's ascending list filtered
    to the ball, so it is already canonical, node features are sliced from
    the parent, and the BFS distances are kept as ``depth``.
    """
    _check_node(g, center, "center")
    if k < 0:
        raise InputError(f"k must be nonnegative, got {k}")
    if identity_at is not None:
        _check_node(g, identity_at, "identity_at")
    identity = int(center if identity_at is None else identity_at)

    dist = bfs_distances(g, center, k)
    parents = tuple(v for v, d in enumerate(dist) if d is not None)
    local = {p: i for i, p in enumerate(parents)}
    adjacency = tuple(tuple(local[w] for w in g.adjacency[p] if w in local)
                      for p in parents)
    edges = tuple((i, j) for i, nbrs in enumerate(adjacency) for j in nbrs if i < j)
    feats = None
    if g.node_features is not None:
        feats = g.node_features[list(parents), :]
        feats.setflags(write=False)
    return EgoNet(
        subgraph=Graph(len(parents), edges, adjacency, feats),
        center_local_index=local[center],
        to_parent=parents,
        identity_mask=tuple(p == identity for p in parents),
        depth=tuple(dist[p] for p in parents),
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
