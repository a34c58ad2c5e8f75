"""1-WL color refinement, WL graph hashing, and exact isomorphism checking.

Color ids are canonical: each refinement round sorts the distinct
(own color, sorted neighbor-color multiset) signatures and numbers them by
rank, so colorings and hashes are invariant under node relabeling. The graph
hash is the first 8 bytes of blake2b over the canonical histogram trajectory
(a recorded implementation constant).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import CapabilityError, InputError
from .graph import Graph

WL_HASH_NAME = "blake2b8(histogram-trajectory)"

MAX_ISO_NODES = 128


@dataclass(frozen=True)
class WlColoring:
    """Stable 1-WL coloring: per-node color ids, rounds to stabilize, and the
    sorted (color, count) histogram."""

    colors: tuple[int, ...]
    num_rounds: int
    histogram: tuple[tuple[int, int], ...]


def _canonical_ranks(signatures: list) -> list[int]:
    order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
    return [order[sig] for sig in signatures]


def _histogram(colors) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for c in colors:
        counts[c] = counts.get(c, 0) + 1
    return tuple(sorted(counts.items()))


def _stabilize(g: Graph, init_colors=None, visit=lambda colors: None):
    """Refine canonical colorings to stabilization, at most max(num_nodes, 1)
    rounds, calling ``visit`` on each distinct coloring in order, round 0
    first. Returns the stable coloring and the number of rounds run,
    including the one that repeated it."""
    n = g.num_nodes
    if init_colors is None:
        colors = [0] * n
    else:
        if len(init_colors) != n:
            raise InputError(
                f"init_colors must have length {n}, got {len(init_colors)}"
            )
        colors = _canonical_ranks([int(c) for c in init_colors])
    visit(colors)
    rounds = max(n, 1)
    for r in range(1, rounds + 1):
        new_colors = _canonical_ranks([
            (colors[v], tuple(sorted(colors[w] for w in g.adjacency[v])))
            for v in range(n)
        ])
        if new_colors == colors:
            return colors, r
        colors = new_colors
        visit(colors)
    return colors, rounds


def wl_refine(g: Graph, init_colors=None) -> WlColoring:
    """Run 1-WL color refinement to stabilization (at most num_nodes rounds)."""
    colors, num_rounds = _stabilize(g, init_colors)
    return WlColoring(tuple(colors), num_rounds, _histogram(colors))


def wl_graph_hash(g: Graph) -> int:
    """64-bit digest of the WL histogram trajectory; equal for isomorphic graphs."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"n={g.num_nodes};m={g.num_edges};".encode())
    _stabilize(g, visit=lambda colors: h.update(repr(_histogram(colors)).encode()))
    return int.from_bytes(h.digest(), "big")


def _iso_backtrack(g1: Graph, g2: Graph, colors1, colors2) -> bool:
    n = g1.num_nodes
    # candidate images share the node's stable WL color
    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(colors2[v], []).append(v)
    candidates = [by_color.get(colors1[v], []) for v in range(n)]
    if any(not c for c in candidates):
        return False

    # assign rarest-candidate nodes first, preferring nodes adjacent to the
    # already-assigned region so adjacency pruning bites immediately
    order: list[int] = []
    placed = [False] * n
    scored = sorted(range(n), key=lambda v: (len(candidates[v]), -g1.degree(v), v))
    while len(order) < n:
        pick = None
        for v in scored:
            if placed[v]:
                continue
            if any(placed[w] for w in g1.adjacency[v]):
                pick = v
                break
        if pick is None:  # new connected component
            pick = next(v for v in scored if not placed[v])
        placed[pick] = True
        order.append(pick)

    mapping = [-1] * n
    used = [False] * n
    adj2 = [set(nbrs) for nbrs in g2.adjacency]

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        v = order[depth]
        mapped_nbrs = [w for w in g1.adjacency[v] if mapping[w] >= 0]
        for c in candidates[v]:
            if used[c] or g2.degree(c) != g1.degree(v):
                continue
            if any(mapping[w] not in adj2[c] for w in mapped_nbrs):
                continue
            # non-edges must also map to non-edges: c has no placed neighbor
            # beyond the images of v's placed neighbors
            if sum(used[x] for x in g2.adjacency[c]) != len(mapped_nbrs):
                continue
            mapping[v] = c
            used[c] = True
            if extend(depth + 1):
                return True
            mapping[v] = -1
            used[c] = False
        return False

    return extend(0)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by backtracking over WL-color-compatible maps.

    Desk-scale only; raises CapabilityError above MAX_ISO_NODES nodes.
    """
    if max(g1.num_nodes, g2.num_nodes) > MAX_ISO_NODES:
        raise CapabilityError(
            f"exact isomorphism limited to {MAX_ISO_NODES} nodes"
        )
    if g1.num_nodes != g2.num_nodes or g1.num_edges != g2.num_edges:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    c1 = wl_refine(g1)
    c2 = wl_refine(g2)
    if c1.histogram != c2.histogram:
        return False
    return _iso_backtrack(g1, g2, c1.colors, c2.colors)
