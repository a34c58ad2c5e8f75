import hashlib
import signal
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from idgnn import counts, expressiveness
from idgnn.cli import main
from idgnn.counts import graph_signature, walk_count_features_many
from idgnn.datasets import GraphRecord, save_graph, save_jsonl
from idgnn.errors import CapabilityError, InputError
from idgnn.expressiveness import SignatureIndex
from idgnn.generators import gen_d_regular, gen_small_world
from idgnn.graph import build_graph, relabel_graph
from idgnn import wl
from idgnn.wl import are_isomorphic, wl_equivalent, wl_graph_hash, wl_refine
from oracles import edge_list, isomorphic_brute, neighbor_lists, random_mixed_graphs

TWO_K3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
C6 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


class TestRefine:
    def test_regular_graph_single_color(self):
        g = gen_d_regular(16, 3, 2)
        coloring = wl_refine(g)
        assert set(coloring.colors) == {0}
        assert coloring.histogram == ((0, 16),)

    def test_path_endpoints_share_color(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        coloring = wl_refine(g)
        assert coloring.colors[0] == coloring.colors[2]
        assert coloring.colors[1] != coloring.colors[0]

    def test_classic_blind_pair_equal_histograms(self):
        assert wl_refine(TWO_K3).histogram == wl_refine(C6).histogram

    def test_stabilizes_within_n_rounds(self):
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)])
        coloring = wl_refine(g)
        assert coloring.num_rounds <= g.num_nodes

    def test_refinement_is_stable(self):
        # one more round with the stable colors as init keeps the partition
        g = gen_small_world(20, 4, 0.3, 4)
        first = wl_refine(g)
        again = wl_refine(g, init_colors=first.colors)
        def partition(colors):
            groups = {}
            for v, c in enumerate(colors):
                groups.setdefault(c, set()).add(v)
            return sorted(map(frozenset, groups.values()), key=sorted)
        assert partition(again.colors) == partition(first.colors)

    def test_monotone_refinement(self):
        # colors at later rounds refine earlier partitions
        g = gen_small_world(24, 4, 0.4, 7)
        coloring = wl_refine(g)
        prev = wl_refine(g, init_colors=[0] * g.num_nodes)
        # same color at the end implies same color at every earlier stage:
        # check the stable partition refines the degree partition
        adjacency = neighbor_lists(g)
        for v in range(g.num_nodes):
            for w in range(g.num_nodes):
                if coloring.colors[v] == coloring.colors[w]:
                    assert len(adjacency[v]) == len(adjacency[w])


class TestHash:
    def test_relabeling_invariance_100_perms(self):
        rng = np.random.default_rng(0)
        for g in (TWO_K3, C6, gen_small_world(18, 4, 0.3, 3)):
            h = wl_graph_hash(g)
            for _ in range(100):
                perm = rng.permutation(g.num_nodes).tolist()
                assert wl_graph_hash(relabel_graph(g, perm)) == h

    def test_blind_spot_pair_collides(self):
        assert wl_graph_hash(TWO_K3) == wl_graph_hash(C6)

    def test_k3_vs_p3_differ(self):
        k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        p3 = build_graph(3, [(0, 1), (1, 2)])
        assert wl_graph_hash(k3) != wl_graph_hash(p3)


# Hashes (as `idgnn wl hash` prints them), round counts and stable colors
# computed by an earlier implementation: a rewrite of the refinement loop
# must keep every one of them, since hashes are compared across files.
PINNED = [
    (build_graph(0, []), "0271cee1f119ca88", 1, ()),
    (build_graph(1, []), "3d0d5a17d0c16cb8", 1, (0,)),
    (build_graph(4, [(0, 1), (1, 2), (2, 3)]), "ea06e309a2b506d5", 2, (0, 1, 1, 0)),
    (TWO_K3, "e2d8f9d80261ce5a", 1, (0,) * 6),
    (build_graph(8, [(i, i + 1) for i in range(7)]), "51583f21c4c1f66f", 4,
     (0, 1, 2, 3, 3, 2, 1, 0)),
    (gen_small_world(20, 4, 0.3, 4), "429b0ed9d7ed3184", 4,
     (2, 10, 5, 7, 0, 4, 9, 1, 8, 18, 15, 16, 19, 14, 13, 11, 6, 3, 12, 17)),
]


@pytest.mark.parametrize("g, digest, rounds, colors", PINNED)
def test_pinned_hash_and_rounds(tmp_path, capsys, g, digest, rounds, colors):
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    assert main(["wl", "hash", path]) == 0
    assert capsys.readouterr().out == digest + "\n"
    assert f"{wl_graph_hash(g):016x}" == digest
    coloring = wl_refine(g)
    assert (coloring.num_rounds, coloring.colors) == (rounds, colors)


@pytest.mark.parametrize("g, init, rounds, colors", [
    (C6, [0, 1, 0, 0, 0, 0], 3, (2, 3, 2, 1, 0, 1)),
    (C6, [5, 5, 2, 2, 9, 9], 2, (3, 2, 0, 1, 4, 5)),
    (build_graph(8, [(i, i + 1) for i in range(7)]), [3] * 8, 4, (0, 1, 2, 3, 3, 2, 1, 0)),
    (build_graph(0, []), [], 1, ()),
])
def test_pinned_rounds_from_init_colors(g, init, rounds, colors):
    coloring = wl_refine(g, init_colors=init)
    assert (coloring.num_rounds, coloring.colors) == (rounds, colors)


# Round counts, blake2b-8 digests of the stable colors and hashes computed
# by an earlier implementation, which refined round 1 from neighbor colors
# where wl_refine now ranks degrees: 24 mixed graphs, paths on 2, 3, 5 and 9
# nodes, stars on 3, 4 and 7, and the empty graphs on 0, 1 and 5 nodes.
ROUND_GRAPHS = (
    random_mixed_graphs(24, 5)
    + [build_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (2, 3, 5, 9)]
    + [build_graph(n, [(0, i) for i in range(1, n)]) for n in (3, 4, 7)]
    + [build_graph(n, []) for n in (0, 1, 5)])
PINNED_ROUNDS = [
    (1, "1a01c3ee608fdb13", "c4b4d80722ba6add"),  # n=30
    (5, "a3af822dc4cd60f2", "3d53cf9c1f7b2f32"),  # n=8
    (4, "7ba4d1acb6c217c1", "62162860c2ba7e81"),  # n=34
    (1, "707636c7b163b31c", "aa0189d8ada0f607"),  # n=18
    (5, "5e37c0651c7b086d", "2e92b2a5c2635a43"),  # n=20
    (4, "42d59d5b7896c51f", "18478f485c90d985"),  # n=12
    (1, "53242928a2d787e3", "54753c8df3502071"),  # n=12
    (4, "51400a7c26b7faf0", "8cbf94b381aae1fd"),  # n=14
    (4, "8b2737e359d2f265", "ef91b83ee1bbc4f5"),  # n=29
    (1, "c31aa0b563a6a5e5", "75fd857c77a5ca8a"),  # n=22
    (4, "35af1b468465a21c", "5f572aba0cc6ef4b"),  # n=37
    (4, "c31a46448fa65b24", "10ff86c222b74d63"),  # n=11
    (1, "55eded89e6e755f6", "2fcc13b2d8078e60"),  # n=29
    (5, "d045ee7695d885c7", "a1e9d722b97af2c2"),  # n=29
    (4, "d5c04c877ab5c022", "704e50905d8110ed"),  # n=10
    (1, "b49a317d84c482dd", "e3259fd972de06a7"),  # n=16
    (3, "d27c85d23d483401", "0bb1d8169da948a7"),  # n=10
    (3, "1901a5dd21962a1d", "d0ad033e6dbbbb4e"),  # n=12
    (1, "1fed3da2fa59e4c3", "c1b819b769d54c70"),  # n=26
    (9, "396eec29dbd3417b", "6d1d4d4fc96cca7d"),  # n=37
    (4, "4d3da1eaed3ba402", "39f1894c7557897e"),  # n=36
    (1, "fbf5302dc308ce46", "e1b12a26896cf407"),  # n=31
    (4, "4a4b3f9579ed58ac", "f5cdc2931323d96a"),  # n=24
    (5, "7183f99febb14180", "244d8f21850a6ece"),  # n=38
    (1, "257993e97254ab8d", "b420b0d86e6dbc76"),  # n=2
    (2, "6a7d37b4c8581834", "9dc1c938827dcaa0"),  # n=3
    (3, "c1d7a7e09ae5a7db", "9e567462b94dda84"),  # n=5
    (5, "9a77d7fce212e8dd", "7f83ae607092d7a4"),  # n=9
    (2, "a1277d118d2d7117", "9dc1c938827dcaa0"),  # n=3
    (2, "868fcf4434c118c3", "d7b77a1d8bebe23b"),  # n=4
    (2, "647addd7ac5db806", "97e3026414439c24"),  # n=7
    (1, "9791547bf874064f", "0271cee1f119ca88"),  # n=0
    (1, "c8238c97d6320a49", "3d0d5a17d0c16cb8"),  # n=1
    (1, "f10cb1e1850bedad", "aed5567eff852560"),  # n=5
]


@pytest.mark.parametrize("index", range(len(PINNED_ROUNDS)))
def test_pinned_rounds_colors_and_hashes(index):
    # the degree round starts from any uniform coloring, and keeps rounds,
    # colors and hashes on non-regular graphs too
    g, (rounds, colors, digest) = ROUND_GRAPHS[index], PINNED_ROUNDS[index]
    assert f"{wl_graph_hash(g):016x}" == digest
    for init in (None, [7] * g.num_nodes):
        coloring = wl_refine(g, init_colors=init)
        assert coloring.num_rounds == rounds
        assert hashlib.blake2b(repr(coloring.colors).encode(), digest_size=8).hexdigest() == colors


class TestIsomorphism:
    def test_relabeled_graph_isomorphic(self):
        rng = np.random.default_rng(5)
        g = gen_small_world(16, 4, 0.4, 8)
        perm = rng.permutation(16).tolist()
        assert are_isomorphic(g, relabel_graph(g, perm))

    def test_blind_pair_not_isomorphic(self):
        assert not are_isomorphic(TWO_K3, C6)

    def test_k4_vs_k4(self):
        k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert are_isomorphic(k4, k4)

    def test_soundness_implies_equal_hashes(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            g = gen_d_regular(12, 3, seed)
            h = relabel_graph(g, rng.permutation(12).tolist())
            assert are_isomorphic(g, h)
            assert wl_graph_hash(g) == wl_graph_hash(h)

    def test_different_edge_counts(self):
        a = build_graph(4, [(0, 1), (1, 2)])
        b = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert not are_isomorphic(a, b)

    def test_regular_nonisomorphic_pair(self):
        # K_3,3 vs the triangular prism: both 3-regular on 6 nodes, WL-blind,
        # but the prism has triangles and K_3,3 has none
        k33 = build_graph(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
        prism = build_graph(
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
        )
        assert wl_graph_hash(k33) == wl_graph_hash(prism)
        assert not are_isomorphic(k33, prism)

    def test_size_limit(self):
        g = build_graph(200, [(i, i + 1) for i in range(199)])
        with pytest.raises(CapabilityError):
            are_isomorphic(g, g)


@st.composite
def graph_pairs(draw):
    """A graph on at most 7 nodes and a relabeled copy, a relabeled copy with
    one edge moved, or an unrelated graph with as many edges."""
    n = draw(st.integers(1, 7))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(slots))) if slots else set()
    g1 = build_graph(n, edges)
    mode = draw(st.sampled_from(["copy", "moved", "unrelated"]))
    if mode == "unrelated":
        edges = set(draw(st.permutations(slots))[:len(edges)])
    elif mode == "moved" and edges and len(edges) < len(slots):
        edges = (edges - {draw(st.sampled_from(sorted(edges)))}) | {
            draw(st.sampled_from(sorted(set(slots) - edges)))}
    return g1, relabel_graph(build_graph(n, edges), draw(st.permutations(range(n))))


@st.composite
def wl_equal_pairs(draw):
    """Two relabeled unions of cycles on 6 or 7 nodes, or their complements:
    regular graphs of one degree, which 1-WL never tells apart, isomorphic
    only when the cycle lengths agree."""
    n = draw(st.sampled_from([6, 7]))
    splits = {6: [(6,), (3, 3)], 7: [(7,), (3, 4)]}[n]
    complement = draw(st.booleans())
    pair = []
    for lengths in (draw(st.sampled_from(splits)), draw(st.sampled_from(splits))):
        starts = np.cumsum((0,) + lengths)
        g = build_graph(n, [(s + i, s + (i + 1) % m) for s, m in zip(starts, lengths)
                            for i in range(m)])
        if complement:
            adjacency = neighbor_lists(g)
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if v not in adjacency[u]])
        pair.append(relabel_graph(g, draw(st.permutations(range(n)))))
    assert wl_graph_hash(pair[0]) == wl_graph_hash(pair[1])
    return tuple(pair)


def disjoint_union(*graphs):
    edges, shift = [], 0
    for g in graphs:
        edges += [(u + shift, v + shift) for u, v in edge_list(g)]
        shift += g.num_nodes
    return build_graph(shift, edges)


@st.composite
def disconnected_pairs(draw):
    """A ∪ B and a relabeled A ∪ C on at most 7 nodes, C on B's nodes with
    as many edges as B: the search meets nodes that cannot reach each other,
    in components that may differ."""
    def edge_set(n):
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return draw(st.sets(st.sampled_from(slots))) if slots else set()

    n_a = draw(st.integers(1, 4))
    n_b = draw(st.integers(1, 7 - n_a))
    a, b_edges = build_graph(n_a, edge_set(n_a)), edge_set(n_b)
    slots = [(u, v) for u in range(n_b) for v in range(u + 1, n_b)]
    c = build_graph(n_b, draw(st.permutations(slots))[:len(b_edges)])
    g2 = relabel_graph(disjoint_union(a, c), draw(st.permutations(range(n_a + n_b))))
    return disjoint_union(a, build_graph(n_b, b_edges)), g2


@given(graph_pairs() | wl_equal_pairs() | disconnected_pairs())
@settings(max_examples=400, deadline=None)
def test_are_isomorphic_matches_brute_force(pair):
    g1, g2 = pair
    assert are_isomorphic(g1, g2) == isomorphic_brute(g1, g2)
    assert are_isomorphic(g2, g1) == are_isomorphic(g1, g2)


# Their hashes collide, but the degree sequences differ, so 1-WL separates
# them at round 1.
HASH_TWINS = (
    build_graph(7, [(0, 2), (0, 5), (0, 6), (1, 3), (1, 6), (2, 5), (3, 6), (4, 6)]),
    build_graph(7, [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 6), (3, 4), (4, 5)]),
)


@given(graph_pairs() | wl_equal_pairs() | disconnected_pairs())
@example(HASH_TWINS)
@settings(max_examples=400, deadline=None)
def test_isomorphic_then_wl_equivalent_then_equal_hashes(pair):
    g1, g2 = pair
    same = wl_equivalent(g1, g2)
    assert wl_equivalent(g2, g1) == same
    if are_isomorphic(g1, g2):
        assert same
    if same:
        assert wl_graph_hash(g1) == wl_graph_hash(g2)
        assert sorted(g1.degrees()) == sorted(g2.degrees())


# Both strongly regular with parameters (16, 6, 2, 2): every node has the
# same closed-walk counts and ring sizes, and 1-WL gives one color, so only
# the search itself tells them apart.
ROOK_4X4 = build_graph(16, [(a, b) for a in range(16) for b in range(a + 1, 16)
                            if a // 4 == b // 4 or a % 4 == b % 4])
SHRIKHANDE = build_graph(16, [
    (a, b) for a in range(16) for b in range(a + 1, 16)
    if ((a // 4 - b // 4) % 4, (a % 4 - b % 4) % 4)
    in {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}])


class TestStronglyRegularPair:
    def test_every_invariant_agrees(self):
        assert ROOK_4X4.degrees() == SHRIKHANDE.degrees() == [6] * 16
        for k in range(1, 21):
            assert graph_signature(ROOK_4X4, k) == graph_signature(SHRIKHANDE, k)
        assert wl_graph_hash(ROOK_4X4) == wl_graph_hash(SHRIKHANDE)

    def test_not_isomorphic(self):
        rng = np.random.default_rng(3)
        rook = relabel_graph(ROOK_4X4, rng.permutation(16).tolist())
        assert not are_isomorphic(rook, SHRIKHANDE)
        assert not are_isomorphic(SHRIKHANDE, rook)
        assert are_isomorphic(ROOK_4X4, rook)
        assert are_isomorphic(SHRIKHANDE, relabel_graph(SHRIKHANDE, rng.permutation(16).tolist()))

    def test_components_cannot_share_an_image(self):
        # two rook components must not both map onto the one rook of the other graph
        both = disjoint_union(ROOK_4X4, SHRIKHANDE)
        perm = np.random.default_rng(4).permutation(32).tolist()
        assert not are_isomorphic(disjoint_union(ROOK_4X4, ROOK_4X4), both)
        assert not are_isomorphic(both, disjoint_union(ROOK_4X4, ROOK_4X4))
        assert are_isomorphic(disjoint_union(SHRIKHANDE, ROOK_4X4), relabel_graph(both, perm))

    def test_dedupe_keeps_one_of_each(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        graphs = [relabel_graph(g, rng.permutation(16).tolist())
                  for g in (ROOK_4X4, SHRIKHANDE) for _ in range(10)]
        order = rng.permutation(len(graphs)).tolist()
        path, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
        save_jsonl([GraphRecord(graphs[i]) for i in order], path)
        assert main(["wl", "dedupe", "--data", path, "--out", out]) == 0
        assert capsys.readouterr().out == "kept 2 of 20 graphs\n"


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestScale:
    @pytest.mark.parametrize("n", [64, 96, 128])
    @pytest.mark.parametrize("d", [3, 6])
    def test_random_regular_pairs(self, monkeypatch, n, d):
        g, other = gen_d_regular(n, d, 0), gen_d_regular(n, d, 1)
        copy = relabel_graph(g, np.random.default_rng(n + d).permutation(n).tolist())
        # are_isomorphic never reads signatures: it must find the difference itself
        assert graph_signature(g, 10) != graph_signature(other, 10)
        nodes, search = [], wl._extend

        def counted(*args):
            nodes.append(None)
            return search(*args)

        monkeypatch.setattr(wl, "_extend", counted)
        # distance rings leave the search almost no wrong turns; adjacency
        # alone takes hundreds to thousands of search nodes on these pairs
        for a, b, same in ((g, copy, True), (copy, g, True), (g, other, False),
                           (other, copy, False)):
            nodes.clear()
            with time_limit(10):
                assert are_isomorphic(a, b) == same
            assert len(nodes) <= 2 * n

    def test_compare_at_max_size(self, tmp_path, capsys):
        g = gen_d_regular(128, 3, 2)
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_graph(g, a)
        save_graph(relabel_graph(g, np.random.default_rng(1).permutation(128).tolist()), b)
        with time_limit(10):
            assert main(["wl", "compare", a, b]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: isomorphic"


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


# The five groups of order 8 as products of element indices 0..7, identity 0:
# Z4 x Z2 and D4 index (x, y) as 2x + y, with D4's y the reflection bit, and
# Q8 indexes the unit quaternions +1, +i, +j, +k, -1, -i, -j, -k.
QUATERNIONS = [tuple(s * (i == u) for i in range(4)) for s in (1, -1) for u in range(4)]
ORDER_8_GROUPS = {
    "Z8": lambda a, b: (a + b) % 8,
    "Z4xZ2": lambda a, b: (a // 2 + b // 2) % 4 * 2 + (a ^ b) % 2,
    "Z2^3": lambda a, b: a ^ b,
    "D4": lambda a, b: (a // 2 + (-1) ** (a % 2) * (b // 2)) % 4 * 2 + (a ^ b) % 2,
    "Q8": lambda a, b: QUATERNIONS.index(_hamilton(QUATERNIONS[a], QUATERNIONS[b])),
}


def latin_square_graph(mul):
    """The Latin-square graph of an order-8 group's Cayley table: one node per
    cell (a, b), two cells adjacent when they share a row, a column or the
    symbol a * b. Every group gives srg(64, 21, 8, 6)."""
    cells = [(a, b, mul(a, b)) for a in range(8) for b in range(8)]
    return build_graph(64, [(i, j) for i in range(64) for j in range(i + 1, 64)
                            if any(x == y for x, y in zip(cells[i], cells[j]))])


LATIN = {name: latin_square_graph(mul) for name, mul in ORDER_8_GROUPS.items()}


@pytest.fixture
def search_nodes(monkeypatch):
    """Counts of the calls of wl._extend (search nodes), wl._rings,
    wl.wl_refine and the walk-count kernel made while the test runs; the
    kernel is counted in every module that imports it."""
    bound_in = {"_extend": [wl], "_rings": [wl], "wl_refine": [wl],
                "walk_count_features_many": [counts, wl, expressiveness]}
    calls = dict.fromkeys(bound_in, 0)

    def counting(name):
        fn = getattr(wl, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name, modules in bound_in.items():
        wrapped = counting(name)
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    return calls


class TestLatinSquareGraphs:
    """A hard family: 1-WL, closed-walk signatures and the distance rings
    all agree across the five groups, so only the search separates them.
    Z2^3 against D4 takes 125,057 search nodes and about 4 s, so it is not
    run here."""

    def test_groups_are_distinct_and_every_invariant_agrees(self):
        def orders(mul):
            def order(a):
                x, k = a, 1
                while x:
                    x, k = mul(x, a), k + 1
                return k
            return sorted(map(order, range(8)))

        assert len({tuple(orders(mul)) for mul in ORDER_8_GROUPS.values()}) == 5
        for g in LATIN.values():
            assert g.degrees() == [21] * 64 and g.num_edges == 672
            assert graph_signature(g, 10) == graph_signature(LATIN["Z8"], 10)
            assert wl_graph_hash(g) == wl_graph_hash(LATIN["Z8"])

    @pytest.mark.parametrize("first, second, bound", [
        ("Q8", "Z2^3", 12_161), ("Z2^3", "Q8", 14_465)])
    def test_q8_against_z2_cubed(self, search_nodes, first, second, bound):
        with time_limit(20):
            assert not are_isomorphic(LATIN[first], LATIN[second])
        assert search_nodes["_extend"] <= bound

    @pytest.mark.parametrize("name", list(ORDER_8_GROUPS))
    def test_relabeled_copy(self, search_nodes, name):
        perm = np.random.default_rng(0).permutation(64).tolist()
        assert are_isomorphic(LATIN[name], relabel_graph(LATIN[name], perm))
        assert search_nodes["_extend"] <= 2 * 64

    def test_index_builds_each_state_once(self, search_nodes):
        # Q8 is alone until Z2^3 collides with it; each later graph is
        # compared against both kept graphs from its one state
        rng = np.random.default_rng(1)
        q8, z2 = LATIN["Q8"], LATIN["Z2^3"]
        graphs = [q8, z2, relabel_graph(z2, rng.permutation(64).tolist()),
                  relabel_graph(q8, rng.permutation(64).tolist())]
        with time_limit(40):
            assert SignatureIndex().add_many(graphs) == [True, True, False, False]
        assert search_nodes["_rings"] == 4
        assert search_nodes["wl_refine"] == 0
        assert search_nodes["_extend"] <= 29_507

    def test_index_builds_no_state_without_collision(self, search_nodes):
        paths = [build_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in range(1, 21)]
        assert SignatureIndex().add_many(paths) == [True] * 20
        assert search_nodes["_rings"] == search_nodes["wl_refine"] == 0


class TestWalkKeys:
    """Node keys read the closed-walk counts that the signature index
    already holds."""

    def test_counts_fit_at_max_size(self):
        # ISO_WALK_K is the longest walk length whose counts fit int64 on the
        # densest graph of MAX_ISO_NODES nodes
        n = wl.MAX_ISO_NODES
        k128 = build_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
        copy = relabel_graph(k128, np.random.default_rng(2).permutation(n).tolist())
        assert are_isomorphic(k128, copy)
        with pytest.raises(CapabilityError, match="64-bit"):
            walk_count_features_many([k128], wl.ISO_WALK_K + 1)
        k129 = build_graph(n + 1, [(a, b) for a in range(n + 1) for b in range(a + 1, n + 1)])
        with pytest.raises(CapabilityError, match=f"limited to {n} nodes"):
            are_isomorphic(k129, k129)

    def test_relabeled_regular_copies_take_n_plus_one_nodes(self, search_nodes):
        # the benchmark's shape: 10-node 4-regular bases, where 1-WL gives
        # every node one color
        rng = np.random.default_rng(8)
        for seed in range(20):
            base = gen_d_regular(10, 4, seed)
            for _ in range(5):
                copy = relabel_graph(base, rng.permutation(10).tolist())
                search_nodes["_extend"] = 0
                assert are_isomorphic(base, copy)
                assert search_nodes["_extend"] <= 10 + 1

    def test_index_runs_the_kernel_once(self, search_nodes):
        rng = np.random.default_rng(9)
        bases = [gen_d_regular(10, 4, seed) for seed in range(6)]
        graphs = [relabel_graph(g, rng.permutation(10).tolist())
                  for g in bases for _ in range(4)]
        classes = len({graph_signature(g, 10) for g in bases})
        search_nodes["walk_count_features_many"] = 0
        assert sum(SignatureIndex().add_many(graphs)) == classes
        assert search_nodes["walk_count_features_many"] == 1
        assert search_nodes["_rings"] > 0
        assert search_nodes["wl_refine"] == 0

    def test_state_needs_the_key_columns(self):
        g = gen_d_regular(10, 4, 0)
        with pytest.raises(InputError):
            wl.iso_state(g, walk_count_features_many([g], wl.ISO_WALK_K - 1)[0])
