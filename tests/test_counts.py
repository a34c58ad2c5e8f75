from contextlib import contextmanager
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from idgnn import counts
from idgnn.counts import _adjacency_panel as adjacency_panel
from idgnn.counts import (
    augment_features,
    clustering_from_counts,
    count_signatures,
    graph_signature,
    walk_count_features,
    walk_count_features_many,
    with_count_columns,
)
from idgnn.errors import CapabilityError, InputError
from idgnn.graph import build_graph, relabel_graph
from idgnn.nn import forward_batch, make_batch, make_walk_count_model
from oracles import (
    bfs_distances,
    clustering_direct,
    count_walks_brute,
    dense_power_diag,
    edge_list,
    random_mixed_graphs,
    triangle_count_at,
    walk_counts_exact,
)

K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
K2 = build_graph(2, [(0, 1)])
PAW = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])  # hub 0, pendant 3
TWO_K3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
C6 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def model_rows(g, anchors, k: int) -> np.ndarray:
    """Rows of make_walk_count_model(k) for ``anchors`` of g, run as one
    batch: anchor (u, v) counts the walks u -> v of lengths 1..k."""
    m = make_walk_count_model(k)
    return forward_batch(m, make_batch(m, [g], [np.ones((g.num_nodes, k))], [anchors]))


def first_nonzero(rows: np.ndarray) -> list[int | None]:
    """Per row, the first length with a nonzero walk count, None for a zero
    row: the u-v distance within k of an anchor (u, v), u != v."""
    return [int(np.flatnonzero(r)[0]) + 1 if r.any() else None for r in rows]


class TestIdentityWalkCounts:
    def test_triangle_rows(self):
        # frozen from the walk-enumeration oracle: identity row [0, 2, 2]
        # (A^2 = J + I, A^3 = 3J - I on K3), neighbor row [1, 1, 3]
        rows = model_rows(K3, [(0, 0), (1, 0)], 3)
        for j in range(1, 4):
            assert rows[0, j - 1] == count_walks_brute(K3, 0, 0, j)
            assert rows[1, j - 1] == count_walks_brute(K3, 1, 0, j)
        assert rows[0].tolist() == [0, 2, 2]
        assert rows[1].tolist() == [1, 1, 3]

    def test_isolated_node(self):
        g = build_graph(1, [])
        assert model_rows(g, [(0, 0)], 4).tolist() == [[0, 0, 0, 0]]

    def test_single_edge_rows(self):
        # oracle-frozen: exactly one length-3 walk u -> v -> u -> v on K2,
        # so the non-identity row is [1, 0, 1] and the identity row [0, 1, 0]
        rows = model_rows(K2, [(0, 1), (1, 1)], 3)  # identity at node 1
        assert count_walks_brute(K2, 0, 1, 3) == 1
        assert rows[0].tolist() == [1, 0, 1]
        assert rows[1].tolist() == [0, 1, 0]

    def test_full_matrix_vs_walk_enumeration(self):
        # the row of anchor (u, identity) must equal the walk count from u to
        # the identity, for every u, those outside the ball included
        for g in random_mixed_graphs(6, seed=13, max_n=10):
            for identity in range(0, g.num_nodes, 3):
                rows = model_rows(g, [(u, identity) for u in range(g.num_nodes)], 4)
                for u in range(g.num_nodes):
                    for j in range(1, 5):
                        assert rows[u, j - 1] == count_walks_brute(g, u, identity, j)


class TestWalkCountFeatures:
    def test_triangle(self):
        assert walk_count_features(K3, 3).tolist() == [[0, 2, 2]] * 3

    def test_triangle_free_third_column_zero(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert not walk_count_features(g, 3)[:, 2].any()

    def test_second_column_is_degree(self):
        for g in random_mixed_graphs(6, seed=4, max_n=25):
            feats = walk_count_features(g, 2)
            assert feats[:, 1].tolist() == g.degrees()

    def test_matches_dense_power_oracle(self):
        for g in random_mixed_graphs(9, seed=8, max_n=30):
            assert np.array_equal(walk_count_features(g, 6), dense_power_diag(g, 6))

    def test_matches_recursion_identity_row(self):
        # the recursion is the engine's: self anchors give the closed walks
        for g in random_mixed_graphs(6, seed=3, max_n=20):
            feats = walk_count_features(g, 5)
            assert np.array_equal(feats, dense_power_diag(g, 5))
            assert feats.tolist() == model_rows(g, None, 5).tolist()

    def test_overflow_reported(self):
        n = 40
        kn = build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        with pytest.raises(CapabilityError):
            walk_count_features(kn, 40)

    def test_k_validation(self):
        with pytest.raises(InputError):
            walk_count_features(K3, 0)


@st.composite
def small_graphs(draw, max_n: int):
    """Empty, edgeless, complete, star and arbitrary graphs (so isolated
    nodes)."""
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["edgeless", "complete", "star", "any"]))
    if kind == "edgeless" or not pairs:
        return build_graph(n, [])
    if kind == "complete":
        return build_graph(n, pairs)
    if kind == "star":
        return build_graph(n, pairs[:n - 1])
    return build_graph(n, draw(st.sets(st.sampled_from(pairs))))


# At the default bound every block of these small graphs is a dense panel.
# Bounds of 1, 2, 3 and 5 cells split a list at many points and leave every
# graph of 3 or more nodes on CSR powers; at 16 and 36 cells graphs of up to
# 4 and 6 nodes share panels while larger ones run on CSR, in one list.
block_cells = st.sampled_from([None, 1, 2, 3, 5, 16, 36])


@contextmanager
def walk_block_cells(cells):
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(counts, "_WALK_BLOCK_CELLS", cells)
        yield


@seed(0)
@settings(max_examples=100, deadline=None)
@given(g=small_graphs(11), k=st.integers(1, 5), data=st.data())
def test_walk_count_model_rows(g, k, data):
    # one more node, isolated, so some identities lie outside their ball;
    # some anchors repeat
    n = g.num_nodes + 1
    g = build_graph(n, edge_list(g))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    anchors = data.draw(st.lists(pair, min_size=1, max_size=12)) + [(0, n - 1)]
    anchors += data.draw(st.lists(st.sampled_from(anchors), min_size=1, max_size=4))
    rows = model_rows(g, anchors, k)
    A = np.zeros((n, n), dtype=np.int64)
    for u, v in edge_list(g):
        A[u, v] = A[v, u] = 1
    powers = [np.linalg.matrix_power(A, j) for j in range(1, k + 1)]
    assert rows.tolist() == [[P[u, v] for P in powers] for u, v in anchors]
    for row, anchor in zip(rows, anchors):
        assert model_rows(g, [anchor], k).tolist() == [row.tolist()]
    perm = data.draw(st.permutations(range(n)))
    moved = [(perm[u], perm[v]) for u, v in anchors]
    assert np.array_equal(model_rows(relabel_graph(g, perm), moved, k), rows)


class TestWalkCountKernel:
    @settings(max_examples=300, deadline=None)
    @given(graphs=st.lists(small_graphs(9), max_size=6), k=st.integers(1, 12),
           cells=block_cells)
    def test_equals_exact_oracle(self, graphs, k, cells):
        with walk_block_cells(cells):
            out = walk_count_features_many(graphs, k)
        assert len(out) == len(graphs)
        for g, feats in zip(graphs, out):
            assert feats.dtype == np.int64 and feats.shape == (g.num_nodes, k)
            assert feats.tolist() == walk_counts_exact(g, k).tolist()

    @settings(max_examples=120, deadline=None)
    @given(graphs=st.lists(small_graphs(12), min_size=1, max_size=5),
           k=st.integers(1, 40), cells=block_cells)
    def test_overflow_per_graph(self, graphs, k, cells):
        # a list raises exactly when one of its graphs raises on its own,
        # and whatever comes back is exact, never a wrapped value
        with walk_block_cells(cells):
            alone = []
            for g in graphs:
                try:
                    alone.append(walk_count_features(g, k))
                except CapabilityError:
                    alone.append(None)
            try:
                batch = walk_count_features_many(graphs, k)
            except CapabilityError:
                batch = None
        assert (batch is None) == any(a is None for a in alone)
        for i, g in enumerate(graphs):
            exact = walk_counts_exact(g, k).tolist()
            if alone[i] is not None:
                assert alone[i].tolist() == exact
            if batch is not None:
                assert batch[i].tolist() == exact

    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(12), k=st.integers(1, 10), cells=block_cells, data=st.data())
    def test_relabeling_permutes_rows(self, g, k, cells, data):
        # node v of g is node perm[v] of the relabeled graph, in one list
        perm = data.draw(st.permutations(range(g.num_nodes)))
        with walk_block_cells(cells):
            feats, relabeled = walk_count_features_many([g, relabel_graph(g, perm)], k)
        assert np.array_equal(relabeled[perm], feats)

    def test_panel_and_csr_meet_at_the_budget(self):
        # at n^2 cells the path runs as one panel, at n^2 - 1 on CSR powers;
        # both are exact below length 124 and raise from there on
        path = build_graph(3, [(0, 1), (1, 2)])
        first_raise = {}
        for cells, panel in ((9, True), (8, False)):
            panels = []

            def recording(*args):
                panels.append(adjacency_panel(*args))
                return panels[-1]

            with walk_block_cells(cells), pytest.MonkeyPatch.context() as mp:
                mp.setattr(counts, "_adjacency_panel", recording)
                for k in range(100, 200):
                    try:
                        [feats] = walk_count_features_many([path], k)
                    except CapabilityError:
                        first_raise[cells] = k
                        break
                    assert feats.tolist() == walk_counts_exact(path, k).tolist()
            assert bool(panels) == panel
        assert first_raise[9] == first_raise[8] == 124

    def test_csr_longest_row_bound_binds(self):
        # 300 nodes run on CSR powers. Node 0 is isolated and nodes 1-12 form
        # K12, so a power's first row is empty and its longest has 12
        # entries. At the first length where max(X) * max(Y) * (longest row
        # of X) passes 2^62, max(X) * max(Y) alone does not and the power
        # check does not fire: the kernel raises there, and is exact a step
        # before
        m, n, limit = 12, 300, 2**62
        clique = [(i, j) for i in range(m) for j in range(i + 1, m)]
        A = np.ones((m, m), dtype=object) - np.eye(m, dtype=int)

        def power(a):
            return np.linalg.matrix_power(A, a)

        k = next(j for j in range(2, 100)
                 if power(j // 2).max() * power(j - j // 2).max() * m > limit)
        for j in range(3, k + 1, 2):
            assert power(j // 2).max() * (m - 1) <= limit
        assert power(k // 2).max() * power(k - k // 2).max() <= limit
        assert (power(k // 2) != 0).sum(axis=1).max() == m
        g = build_graph(n, [(u + 1, v + 1) for u, v in clique])
        panels = []

        def recording(*args):
            panels.append(adjacency_panel(*args))
            return panels[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counts, "_adjacency_panel", recording)
            with pytest.raises(CapabilityError):
                walk_count_features(g, k)
            feats = walk_count_features(g, k - 1)
        assert not panels
        exact = walk_counts_exact(build_graph(m, clique), k - 1)
        assert feats[1:m + 1].tolist() == exact.tolist()
        assert not feats[0].any() and not feats[m + 1:].any()

    def test_bounds_are_per_graph(self):
        # K5 has the larger counts and the star the longer rows: the block's
        # maxima taken together would fail the 64-bit check at k = 32, while
        # each graph's own pass it
        k5 = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        star = build_graph(8, [(0, i) for i in range(1, 8)])
        for feats, g in zip(walk_count_features_many([k5, star], 32), (k5, star)):
            assert feats.tolist() == walk_counts_exact(g, 32).tolist()

    def test_blocks_split_lists(self):
        graphs = [build_graph(n, [(i, i + 1) for i in range(n - 1)]) for n in (3, 0, 2, 5, 1)]
        assert list(counts._walk_blocks([g.num_nodes for g in graphs])) == [(0, 5)]
        with walk_block_cells(9):
            assert list(counts._walk_blocks([3, 0, 2, 5, 1])) == [(0, 2), (2, 3), (3, 4), (4, 5)]
            out = walk_count_features_many(graphs, 5)
        for g, feats in zip(graphs, out):
            assert np.array_equal(feats, dense_power_diag(g, 5))

    def test_matchings_skip_the_power_chain(self):
        # no node of degree 2 or more: the columns alternate 0, deg at any k
        g = build_graph(5, [(1, 3)])
        start = time.perf_counter()
        feats = walk_count_features(g, 200_000)
        assert time.perf_counter() - start < 1.0
        deg = np.array([0, 1, 0, 1, 0])
        assert not feats[:, 0::2].any()
        assert (feats[:, 1::2] == deg[:, None]).all()
        with walk_block_cells(None):
            lone, empty = walk_count_features_many([g, build_graph(3, [])], 7)
        assert lone.tolist() == walk_counts_exact(g, 7).tolist()
        assert not empty.any()

    def test_matching_in_a_mixed_block_still_raises(self):
        # the path's counts pass 2^62 near length 124, so its block raises
        # there, with or without a matching beside it
        path = build_graph(3, [(0, 1), (1, 2)])
        matching = build_graph(4, [(0, 1), (2, 3)])
        assert walk_count_features_many([matching, path], 100)[1].tolist() == \
            walk_counts_exact(path, 100).tolist()
        for graphs in ([path], [matching, path], [path, matching]):
            with pytest.raises(CapabilityError):
                walk_count_features_many(graphs, 200)

    def test_empty_list_and_huge_k(self):
        assert walk_count_features_many([], 4) == []
        with pytest.raises(InputError):
            walk_count_features_many([K3], 99999999999999999999)
        with pytest.raises(InputError):
            walk_count_features(build_graph(0, []), 2**62)


class TestClustering:
    def test_triangle_node(self):
        assert clustering_from_counts([0, 2, 2]) == 1.0
        assert clustering_direct(K3, 0) == 1.0

    def test_star_center(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert clustering_from_counts([0, 3, 0]) == 0.0
        assert clustering_direct(star, 0) == 0.0

    def test_paw_hub(self):
        row = walk_count_features(PAW, 3)[0]
        assert row.tolist() == [0, 3, 2]
        assert clustering_from_counts(row) == pytest.approx(1 / 3)
        assert clustering_direct(PAW, 0) == pytest.approx(1 / 3)

    def test_k4(self):
        k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert clustering_direct(k4, 0) == 1.0

    def test_path_center(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])
        assert clustering_direct(p3, 1) == 0.0

    def test_degenerate_low_degree(self):
        assert clustering_from_counts([1, 1, 0]) == 0.0
        assert clustering_direct(K2, 0) == 0.0

    def test_matrix_gives_one_coefficient_per_row(self):
        feats = walk_count_features(PAW, 4)
        got = clustering_from_counts(feats)
        assert got.dtype == np.float64 and got.shape == (4,)
        assert got.tolist() == [clustering_from_counts(row) for row in feats]
        assert clustering_from_counts(np.zeros((0, 3), dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("counts", [[0, 2], np.zeros((3, 2), dtype=np.int64), 5,
                                        np.zeros((1, 1, 3), dtype=np.int64)])
    def test_needs_three_counts(self, counts):
        with pytest.raises(InputError):
            clustering_from_counts(counts)

    def test_counts_equal_direct_everywhere(self):
        # exact rational agreement between the two routes, all families
        for g in random_mixed_graphs(12, seed=17, max_n=35):
            feats = walk_count_features(g, 3)
            degrees = g.degrees()
            for v in range(g.num_nodes):
                got = clustering_from_counts(feats[v])
                want = clustering_direct(g, v)
                assert got == want
                # cross-check the direct route against raw triangle counts
                deg = degrees[v]
                if deg >= 2:
                    assert want == triangle_count_at(g, v) / (deg * (deg - 1) / 2)


class TestReachability:
    def test_path_cases(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])  # v=0, a=1, b=2
        assert first_nonzero(model_rows(p3, [(2, 0)], 2)) == [2]
        assert first_nonzero(model_rows(p3, [(2, 0)], 1)) == [None]

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert first_nonzero(model_rows(g, [(2, 0)], 10)) == [None]

    def test_matches_bfs_oracle(self):
        for g in random_mixed_graphs(8, seed=23, max_n=20):
            for v in range(0, g.num_nodes, 3):
                others = [u for u in range(g.num_nodes) if u != v]
                for k in range(1, 7):
                    dist = bfs_distances(g, v, k)
                    got = first_nonzero(model_rows(g, [(u, v) for u in others], k))
                    assert got == [dist[u] for u in others]


class TestSignature:
    def test_relabeling_invariance(self):
        rng = np.random.default_rng(2)
        for g in random_mixed_graphs(4, seed=29, max_n=20):
            sig = graph_signature(g, 5)
            for _ in range(25):
                perm = rng.permutation(g.num_nodes).tolist()
                assert graph_signature(relabel_graph(g, perm), 5) == sig

    def test_blind_pair_separated_at_k3(self):
        assert walk_count_features(TWO_K3, 3)[0].tolist() == [0, 2, 2]
        assert walk_count_features(C6, 3)[0].tolist() == [0, 2, 0]
        assert graph_signature(TWO_K3, 3) != graph_signature(C6, 3)

    def test_isomorphic_regular_pair_equal(self):
        from idgnn.generators import gen_d_regular

        g = gen_d_regular(16, 3, 4)
        h = relabel_graph(g, np.random.default_rng(0).permutation(16).tolist())
        assert graph_signature(g, 6) == graph_signature(h, 6)

    @given(g=small_graphs(9), k=st.integers(1, 8), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabeling_invariance_property(self, g, k, data):
        perm = data.draw(st.permutations(range(g.num_nodes)))
        assert graph_signature(relabel_graph(g, perm), k) == graph_signature(g, k)

    @given(graphs=st.lists(small_graphs(9), max_size=6), k=st.integers(1, 8),
           cells=block_cells)
    @settings(max_examples=60, deadline=None)
    def test_list_form_equals_one_graph_form(self, graphs, k, cells):
        # mixed sizes, down to the 0- and 1-node graphs
        graphs = [build_graph(0, []), build_graph(1, [])] + graphs
        with walk_block_cells(cells):
            sigs = count_signatures(walk_count_features_many(graphs, k))
        assert sigs == [graph_signature(g, k) for g in graphs]

    def test_signature_separates_sizes_and_lengths(self):
        empty, point = build_graph(0, []), build_graph(1, [])
        sigs = [graph_signature(g, k) for g in (empty, point, K2) for k in (1, 2)]
        assert len(set(sigs)) == len(sigs)

    @given(n=st.sampled_from([8, 10, 12]), count=st.integers(1, 5),
           seed=st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_table_fractions_count_distinct_signatures(self, n, count, seed):
        from idgnn.expressiveness import build_nonisomorphic_pool, run_regular_experiment

        report = run_regular_experiment(n, 3, count, [1, 2, 3, 4, 6], seed)
        pool, _ = build_nonisomorphic_pool(n, 3, count, seed)
        for k, fraction in report.fractions.items():
            assert fraction == len({graph_signature(g, k) for g in pool}) / count


@given(graphs=st.lists(small_graphs(9), max_size=6), k=st.integers(1, 6),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_augment_features_equals_builder(graphs, k, data):
    # graphs with and without features, built as one list and one at a time
    featured = []
    for g in graphs:
        if data.draw(st.booleans()):
            width = data.draw(st.integers(0, 3))
            g = build_graph(g.num_nodes, edge_list(g),
                            np.arange(g.num_nodes * width, dtype=float).reshape(g.num_nodes, width))
        featured.append(g)
    built = with_count_columns(featured, [g.node_features for g in featured], k)
    for g, x in zip(featured, built):
        assert np.array_equal(augment_features(g, k), x)
        width = 0 if g.node_features is None else g.node_features.shape[1]
        assert x.shape == (g.num_nodes, width + k) and x.dtype == np.float64
        assert np.array_equal(x[:, width:], walk_count_features(g, k))
        if width:
            assert np.array_equal(x[:, :width], g.node_features)


def test_augment_features_widths():
    g = build_graph(3, [(0, 1), (1, 2)], node_features=[[1.0], [2.0], [3.0]])
    out = augment_features(g, 4)
    assert out.shape == (3, 5)
    bare = build_graph(3, [(0, 1), (1, 2)])
    assert augment_features(bare, 4).shape == (3, 4)
