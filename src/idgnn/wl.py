"""1-WL color refinement, WL graph hashing, and exact isomorphism checking.

Color ids are canonical: each refinement round sorts the distinct
(own color, sorted neighbor-color multiset) signatures and numbers them by
rank, so colorings and hashes are invariant under node relabeling. The graph
hash is the first 8 bytes of blake2b over the canonical histogram trajectory
(a recorded implementation constant). Ranks are taken within one graph, so
WL-equivalent graphs hash alike but equal hashes do not make two graphs
WL-equivalent: wl_equivalent decides that by refining their disjoint union.

Exact isomorphism is one backtracking search over Python-int bitsets, with
distance constraints propagated as in VF2 (Cordella et al., IEEE TPAMI 2004)
and the refinement idea of nauty/Traces (McKay & Piperno, J. Symb. Comput.
2014). A graph's search state (iso_state) is built once: its distance rings,
``rings[s][k]`` the bitmask of the nodes k hops from s plus one ring of the
nodes s cannot reach, and each node's key, its closed-walk counts of lengths
1..ISO_WALK_K (ID-GNN-Fast's identity features, counts.walk_count_features_many)
and its ring sizes. Comparing two states (isomorphic_states) gives each node
the nodes of the other graph with its key as candidate images. Mapping u to c
leaves every unplaced x only the candidates in c's ring at x's distance from
u, and the search branches next on the node with the fewest candidates.
Isomorphisms preserve distances and closed-walk counts, so no true image is
ever pruned; distance 1 is adjacency and distance 0 keeps images distinct, so
a complete assignment is an isomorphism. 1-WL gives d-regular graphs one
color, but their closed-walk counts see each node's cycles: relabeled copies
of 10-node 4-regular graphs take n + 1 search nodes, as do relabeled random
3- and 6-regular graphs with 128 nodes, in 6 to 7 ms, and non-isomorphic
draws differ in their keys and take about 2 ms (2 vCPUs, Python 3.11). The
rings come from bitmask BFS over all sources at once rather than from
``graph.bfs_blocks``, whose numpy set-up alone costs about 0.1 ms on a
10-node graph, seven times the bitmask rings. expressiveness.SignatureIndex
builds a graph's state only when its signature collides, and then once,
from the counts it already holds.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .counts import walk_count_features_many
from .errors import CapabilityError, InputError
from .graph import Graph, union_csr

WL_HASH_NAME = "blake2b8(histogram-trajectory)"

MAX_ISO_NODES = 128

# Node keys read closed-walk counts of lengths 1..ISO_WALK_K, the longest
# length at which the kernel's 64-bit check passes on every graph of
# MAX_ISO_NODES nodes: on the complete graph it passes at 9 and fails at 10.
ISO_WALK_K = 9


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
    return tuple(sorted(Counter(colors).items()))


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
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    adjacency = [nbrs[a:b] for a, b in zip(ptr, ptr[1:])]
    rounds = max(n, 1)
    for r in range(1, rounds + 1):
        new_colors = _canonical_ranks([
            (colors[v], tuple(sorted(colors[w] for w in adjacency[v])))
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
    """64-bit digest of the WL histogram trajectory: equal for WL-equivalent
    (so for isomorphic) graphs, but equal digests do not imply
    WL-equivalence, since each graph numbers its colors by its own ranks."""
    h = hashlib.blake2b(digest_size=8)
    h.update(f"n={g.num_nodes};m={g.num_edges};".encode())
    _stabilize(g, visit=lambda colors: h.update(repr(_histogram(colors)).encode()))
    return int.from_bytes(h.digest(), "big")


def wl_equivalent(g1: Graph, g2: Graph) -> bool:
    """Whether 1-WL cannot tell g1 and g2 apart: the stable coloring of
    their disjoint union gives both halves the same color multiset."""
    n1 = g1.num_nodes
    union = Graph(n1 + g2.num_nodes, *union_csr([g1, g2]))
    colors, _ = _stabilize(union)
    return sorted(colors[:n1]) == sorted(colors[n1:])


def _rings(g: Graph) -> list[list[int]]:
    """``rings[s][k]``: the bitmask of the nodes k hops from s, for k up to
    s's eccentricity, then one last ring of the nodes s cannot reach.

    All sources grow together, one hop a level: the ball of radius k + 1
    around s is s and the radius-k balls of its neighbors.
    """
    n = g.num_nodes
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    adjacency = [nbrs[a:b] for a, b in zip(ptr, ptr[1:])]
    balls = [1 << s for s in range(n)]
    rings = [[ball] for ball in balls]
    growing = range(n)
    while growing:
        grown, still = balls[:], []
        for s in growing:
            ball = balls[s]
            for w in adjacency[s]:
                ball |= balls[w]
            if ball != balls[s]:
                rings[s].append(ball & ~balls[s])
                grown[s] = ball
                still.append(s)
        balls, growing = grown, still
    everyone = (1 << n) - 1
    for s in range(n):
        rings[s].append(everyone & ~balls[s])
    return rings


def _extend(cand: list[int], free: int, rings1, rings2) -> bool:
    """Whether the unplaced nodes, the bitmask ``free``, can be mapped into
    their candidate sets ``cand`` (bitmasks of g2 nodes) keeping every
    distance.

    Branches on the node with the fewest candidates. Mapping u to c leaves
    each other unplaced x only the candidates at x's distance from u, taken
    around c; an empty set prunes the branch.
    """
    if not free:
        return True
    u, fewest, rest = -1, len(cand) + 1, free
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        rest ^= low
        size = cand[x].bit_count()
        if size < fewest:
            u, fewest = x, size
    free &= ~(1 << u)
    options = cand[u]
    while options:
        bit = options & -options
        options ^= bit
        narrowed = cand[:]
        # u and its image have the same ring sizes, so their rings pair up
        # by index, the unreachable rings last
        for ring1, ring2 in zip(rings1[u], rings2[bit.bit_length() - 1]):
            rest = ring1 & free
            while rest:
                low = rest & -rest
                x = low.bit_length() - 1
                left = cand[x] & ring2
                if not left:
                    break
                narrowed[x] = left
                rest ^= low
            if rest:
                break
        else:
            if _extend(narrowed, free, rings1, rings2):
                return True
    return False


class IsoState(NamedTuple):
    """One graph's distance rings and node keys (closed-walk counts of
    lengths 1..ISO_WALK_K, then ring sizes)."""

    rings: list[list[int]]
    keys: list[tuple]


def _check_size(g: Graph) -> None:
    if g.num_nodes > MAX_ISO_NODES:
        raise CapabilityError(f"exact isomorphism limited to {MAX_ISO_NODES} nodes")


def iso_state(g: Graph, walks: np.ndarray) -> IsoState:
    """The search state of ``g`` from ``walks``, its closed-walk counts of
    lengths 1..k, k >= ISO_WALK_K, one row per node; raises CapabilityError
    above MAX_ISO_NODES."""
    _check_size(g)
    walks = walks[:, :ISO_WALK_K]
    if walks.shape != (g.num_nodes, ISO_WALK_K):
        raise InputError(f"iso_state needs {g.num_nodes} x {ISO_WALK_K} walk counts, "
                         f"got shape {walks.shape}")
    rings = _rings(g)
    return IsoState(rings, [tuple(row + list(map(int.bit_count, r)))
                            for row, r in zip(walks.tolist(), rings)])


def isomorphic_states(s1: IsoState, s2: IsoState) -> bool:
    """Whether some bijection keeping keys and all distances maps the graph
    of ``s1`` onto that of ``s2``. Equal key multisets imply equal node and
    edge counts and degree sequences, since a node's closed walks of length
    2 are its degree, but not equal WL histograms. The answer is exact all
    the same: isomorphisms keep keys and distances."""
    if sorted(s1.keys) != sorted(s2.keys):
        return False
    by_key: dict[tuple, int] = {}
    for v, key in enumerate(s2.keys):
        by_key[key] = by_key.get(key, 0) | 1 << v
    cand = [by_key[key] for key in s1.keys]
    return _extend(cand, (1 << len(cand)) - 1, s1.rings, s2.rings)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test: compare the two graphs' search states, whose
    walk counts come from one kernel call. Desk-scale only; raises
    CapabilityError above MAX_ISO_NODES nodes."""
    _check_size(g1)
    _check_size(g2)
    w1, w2 = walk_count_features_many([g1, g2], ISO_WALK_K)
    return isomorphic_states(iso_state(g1, w1), iso_state(g2, w2))
