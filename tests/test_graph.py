from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn import graph
from idgnn.errors import InputError
from idgnn.generators import gen_small_world
from idgnn.graph import (
    bfs_blocks,
    build_graph,
    build_graphs,
    extract_ego,
    relabel_graph,
    union_csr,
)
from oracles import (
    bfs_distances,
    build_graph_per_edge,
    ego_by_induced_edges,
    edge_list,
    floyd_warshall,
    neighbor_lists,
    same_ego,
    same_graph,
    union_by_adjacency,
)


def edges_strategy(max_n=30):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=3 * n,
            ),
        )
    )


@st.composite
def graph_lists(draw):
    """Up to 5 graphs with n = 0..8 and any edges, so 0-node graphs, edgeless
    graphs and isolated nodes all occur; the empty list too."""
    graphs = []
    for n in draw(st.lists(st.integers(0, 8), max_size=5)):
        ends = st.integers(0, max(n - 1, 0))
        graphs.append(build_graph(n, draw(st.lists(st.tuples(ends, ends), max_size=2 * n))
                                  if n else []))
    return graphs


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degrees() == [2, 2, 2]
        assert edge_list(g) == ((0, 1), (0, 2), (1, 2))

    def test_dedup_and_self_loop_removal(self):
        g = build_graph(3, [(0, 1), (1, 0), (2, 2)])
        assert edge_list(g) == ((0, 1),)
        assert neighbor_lists(g)[2] == ()

    def test_out_of_range_endpoint(self):
        with pytest.raises(InputError):
            build_graph(4, [(0, 5)])

    @pytest.mark.parametrize("edges, bad", [
        ([(0, 1), (-1, 2)], -1),
        ([(1, 4)], 4),
        ([(9, -3)], 9),
        ([(2, 3), (0, 7), (-1, 0)], 7),
        (np.array([[2**63, 0]], dtype=np.uint64), 2**63),
        ([(0, 1), (2**63, 1)], 2**63),
        ([(1, 2**70)], 2**70),
        ([(5, 2**64)], 5),
    ])
    def test_out_of_range_message_names_first_bad_endpoint(self, edges, bad):
        with pytest.raises(InputError) as err:
            build_graph(4, edges)
        assert str(err.value) == f"edge endpoint {bad} out of range for graph with 4 nodes"

    @pytest.mark.parametrize("edges", [
        lambda: [(0, 1), (2, 1), (3, 3), (1, 0)],
        lambda: ((0, 1), (2, 1), (3, 3), (1, 0)),
        lambda: [[0, 1], [2, 1], [3, 3]],
        lambda: {(0, 1), (1, 2), (3, 3)},
        lambda: ((u, v) for u, v in [(0, 1), (2, 1)]),
        lambda: np.array([[0, 1], [2, 1], [3, 3]]),
        lambda: np.array([[0, 1], [1, 2]], dtype=np.uint8),
        lambda: map(np.array, [(0, 1), (2, 1)]),
    ], ids=["list", "tuple", "lists", "set", "generator", "array", "uint8-array", "rows"])
    def test_edge_input_forms_give_equal_graphs(self, edges):
        assert same_graph(build_graph(4, edges()), build_graph(4, [(0, 1), (1, 2)]))

    @pytest.mark.parametrize("edges", [[], (), set(), iter([]), np.zeros((0, 2), dtype=int),
                                       np.zeros((0, 2))])
    def test_empty_edge_forms_give_equal_graphs(self, edges):
        g = build_graph(3, edges)
        assert same_graph(g, build_graph(3, [])) and g.num_edges == 0

    @pytest.mark.parametrize("n, edges", [
        (4, [(0, 1), (2,)]),
        (4, [(0, 1, 2)]),
        (6, [(0, 1, 2), (3, 4, 5)]),
        (4, [0, 1, 2, 3]),
        (4, [[]]),
        (4, [("a", "b")]),
        (4, [(0, "x")]),
        (4, [(2**70, 0)]),
        (4, [(0, None)]),
        (4, None),
        (-1, []),
        (-3, [(0, 1)]),
        (4, [[1.5, 0]]),
        (4, np.array([[1.7, 0.2]])),
        (4, [["1", "2"]]),
        (4, np.array([[2**63, 0]], dtype=np.uint64)),
        (4, [(True, False)]),
        (4, np.array([[True, False]])),
    ], ids=["ragged", "3-wide", "3-wide-pairs", "flat", "empty-pair", "strings", "string",
            "past-64-bits", "none-endpoint", "none", "negative-count", "negative-count-edge",
            "floats", "float-array", "numeric-strings", "uint64-past-int64", "booleans",
            "bool-array"])
    def test_bad_edge_input_one_line(self, n, edges):
        with pytest.raises(InputError) as err:
            build_graph(n, edges)
        assert "\n" not in str(err.value)

    def test_feature_row_mismatch(self):
        with pytest.raises(InputError):
            build_graph(3, [(0, 1)], node_features=[[1.0], [2.0]])

    def test_features_are_read_only(self):
        g = build_graph(2, [(0, 1)], node_features=[[1.0], [2.0]])
        with pytest.raises(ValueError):
            g.node_features[0, 0] = 5.0

    @pytest.mark.parametrize("build", [
        lambda a: build_graph(3, [(0, 1)], a),
        lambda a: build_graphs([3], [1], [0], [1], [a])[0],
    ], ids=["build_graph", "build_graphs"])
    def test_caller_features_stay_writable(self, build):
        a = np.zeros((3, 1))
        g = build(a)
        assert a.flags.writeable and not g.node_features.flags.writeable
        a[0, 0] = 5.0
        assert g.node_features[0, 0] == 0.0

    @pytest.mark.parametrize("sizes, counts, u, v, feats, message", [
        # graph 1's endpoint fails before graph 2's features are read
        ([2, 3, 2], [1, 1, 0], [0, 5], [1, 0], [None, None, [[1.0]]],
         "edge endpoint 5 out of range for graph with 3 nodes"),
        # graph 0's features fail before graph 1's node count is read
        ([2, -1], [0, 0], [], [], [[[1.0]], None], "node_features must have 2 rows"),
        # within a graph the node count, then the endpoints, then features
        ([1, -2], [0, 1], [0], [0], [None, [[1.0]]], "num_nodes must be nonnegative, got -2"),
        ([2], [2], [0, 1], [1, 2], [[[1.0]]], "edge endpoint 2 out of range"),
    ])
    def test_many_graphs_report_the_first_bad_graph(self, sizes, counts, u, v, feats,
                                                    message):
        with pytest.raises(InputError) as err:
            build_graphs(sizes, counts, u, v, feats)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("sizes, counts, u, v, feats, message", [
        ([3], [2], [0], [1], None, "edge counts sum to 2, with 1 first and 1 second endpoints"),
        ([3], [0], [0], [1], None, "edge counts sum to 0, with 1 first and 1 second endpoints"),
        ([3], [1], [0], [1, 2], None, "edge counts sum to 1, with 1 first and 2 second"),
        ([3, 2], [1], [0], [1], None, "need one edge count per graph, got 1 for 2 graphs"),
        ([3], [1, 0], [0], [1], None, "need one edge count per graph, got 2 for 1 graphs"),
        ([3], [1.5], [0], [1], None, "edge counts must be nonnegative integers, got 1.5"),
        ([3], [True], [0], [1], None, "edge counts must be nonnegative integers, got True"),
        ([3], [-1], [], [], None, "edge counts must be nonnegative integers, got -1"),
        ([3], np.array([-1]), [], [], None, "edge counts must be nonnegative integers, got -1"),
        ([3], ["1"], [0], [1], None, "edge counts must be nonnegative integers, got '1'"),
        # the sum is exact where an int64 sum would wrap to 0
        ([3] * 4, [2**62] * 4, [], [], None, "edge counts sum to 18446744073709551616"),
        ([3], [1], [0], [1], [], "need one feature matrix per graph, got 0 for 1 graphs"),
        ([3], [1], [0], [1], [None, None], "need one feature matrix per graph, got 2 for 1"),
    ], ids=["too-few-edges", "too-many-edges", "uneven-endpoints", "short-counts",
            "long-counts", "float-count", "bool-count", "negative-count",
            "negative-count-array", "string-count", "wrapping-sum", "short-features",
            "long-features"])
    def test_edge_counts_must_match_the_graphs_and_edges(self, sizes, counts, u, v, feats,
                                                         message):
        with pytest.raises(InputError) as err:
            build_graphs(sizes, counts, u, v, feats)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("build, message", [
        (lambda: build_graphs([4], [1], [1.5], [0]), "edge endpoints must be integers, got 1.5"),
        (lambda: build_graph(3.7, [(0, 2)]), "num_nodes must be an integer, got 3.7"),
        (lambda: build_graph(True, []), "num_nodes must be an integer, got True"),
        (lambda: build_graph(2**70, []),
         "num_nodes 1180591620717411303424 is past the 64-bit integer range"),
        # the first bad endpoint in edge order, whichever check it fails
        (lambda: build_graphs([3], [2], [5, 0.5], [0, 0]),
         "edge endpoint 5 out of range for graph with 3 nodes"),
        (lambda: build_graphs([3], [2], [0, 0], [2.5, 7]),
         "edge endpoints must be integers, got 2.5"),
        # numpy reads True as 1 in a list of integers; the builders do not
        (lambda: build_graph(4, [(0, 1), (0, True)]), "edge endpoints must be integers, got True"),
        (lambda: build_graphs([3, True], [1, 0], [0], [1]),
         "num_nodes must be an integer, got True"),
        # a bad node count of a later graph waits for the earlier graphs
        (lambda: build_graphs([2, 2.0], [1, 0], [0], [np.uint64(2**63)]),
         "edge endpoint 9223372036854775808 out of range for graph with 2 nodes"),
    ], ids=["float-endpoint", "float-count", "bool-count", "count-past-64-bits",
            "range-before-float", "float-before-range", "bool-among-ints",
            "bool-count-among-ints", "endpoint-before-next-count"])
    def test_non_integers_are_refused_not_cast(self, build, message):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message

    @given(st.lists(edges_strategy(max_n=8), max_size=5))
    @settings(max_examples=100)
    def test_many_graphs_equal_one_at_a_time(self, cases):
        edges = np.concatenate([np.zeros((0, 2), dtype=np.int64)]
                               + [np.array(e, dtype=np.int64).reshape(-1, 2) for _, e in cases])
        graphs = build_graphs([n for n, _ in cases], [len(e) for _, e in cases],
                              edges[:, 0], edges[:, 1])
        assert len(graphs) == len(cases)
        for g, (n, e) in zip(graphs, cases):
            assert same_graph(g, build_graph(n, e))
        for g in graphs:
            assert not g.indptr.flags.writeable and not g.indices.flags.writeable

    @given(edges_strategy())
    @settings(max_examples=60)
    def test_adjacency_symmetric_and_sorted(self, data):
        n, edges = data
        adjacency = neighbor_lists(build_graph(n, edges))
        for v in range(n):
            assert list(adjacency[v]) == sorted(set(adjacency[v]))
            for w in adjacency[v]:
                assert v in adjacency[w]
                assert w != v


class TestBfs:
    """The queue-based oracle and one-source bfs_blocks agree on hand-made
    cases and with Floyd-Warshall."""

    @staticmethod
    def block_distances(g, source, cap):
        dist, _ = TestBfsBlocks.capped_distances(g, [source], cap)
        return [None if d < 0 else d for d in dist[0].tolist()]

    def test_path_with_cap(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert bfs_distances(g, 0, 2) == self.block_distances(g, 0, 2) == [0, 1, 2, None]

    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert bfs_distances(g, 0, 5) == self.block_distances(g, 0, 5) == [0, 1, 1]

    def test_disconnected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        for dist in (bfs_distances(g, 0, 10), self.block_distances(g, 0, 10)):
            assert dist[2] is None and dist[3] is None

    def test_bad_source(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(InputError):
            list(bfs_blocks([g], [5], 1))

    @given(edges_strategy())
    @settings(max_examples=40)
    def test_matches_floyd_warshall(self, data):
        n, edges = data
        g = build_graph(n, edges)
        D = floyd_warshall(g)
        INF = np.iinfo(np.int64).max // 4
        for s in range(0, n, max(1, n // 4)):
            dist = bfs_distances(g, s, n)
            assert self.block_distances(g, s, n) == dist
            for v in range(n):
                expect = None if D[s, v] >= INF else int(D[s, v])
                assert dist[v] == expect


class TestBfsBlocks:
    """The multi-source search gives Floyd-Warshall distances capped at the
    hop limit, however its blocks split the sources."""

    @staticmethod
    def capped_distances(g, sources, cap):
        dist = np.full((len(sources), g.num_nodes), -1, dtype=np.int64)
        starts = []
        for lo, cells, depth in bfs_blocks([g], sources, cap):
            assert np.all(np.diff(cells) > 0)  # source-major, ascending nodes
            starts.append(lo)
            dist.reshape(-1)[lo * g.num_nodes + cells] = depth
        return dist, starts

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @given(data=edges_strategy(max_n=12), cap=st.integers(0, 12),
           repeats=st.lists(st.integers(0, 11), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_block_bound_matches_floyd_warshall(self, per_block, data, cap, repeats):
        # 3 per block splits n + len(repeats) sources unevenly unless it divides
        n, edges = data
        g = build_graph(n, edges)
        sources = list(range(n)) + [r % n for r in repeats]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", per_block * n)
            dist, starts = self.capped_distances(g, sources, cap)
        assert starts == list(range(0, len(sources), per_block))
        D = floyd_warshall(g)[sources]
        np.testing.assert_array_equal(dist, np.where(D <= cap, D, -1))

    def test_uneven_split(self):
        # 7 sources in blocks of 3: 3 + 3 + 1
        g = build_graph(7, [(i, i + 1) for i in range(6)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", 3 * 7)
            dist, starts = self.capped_distances(g, range(7), 2)
        assert starts == [0, 3, 6]
        D = floyd_warshall(g)
        np.testing.assert_array_equal(dist, np.where(D <= 2, D, -1))

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    @given(graphs=graph_lists(), cap=st.integers(0, 9), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_graphs_match_floyd_warshall(self, per_block, graphs, cap, data):
        # sources are union ids of graphs of mixed sizes, with repeats; cells
        # are laid out per the largest graph, whatever the source's size
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        starts, total = np.cumsum(sizes) - sizes, int(sizes.sum())
        width = int(sizes.max(initial=0))
        sources = list(range(total))
        if total:
            sources += data.draw(st.lists(st.integers(0, total - 1), max_size=4))
        graph_of = np.repeat(np.arange(len(graphs)), sizes)[sources]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", per_block * width)
            blocks = list(bfs_blocks(graphs, sources, cap))
        assert [lo for lo, _, _ in blocks] == list(range(0, len(sources), per_block))
        dist = np.full((len(sources), width), -1, dtype=np.int64)
        for lo, cells, depth in blocks:
            assert np.all(np.diff(cells) > 0)  # source-major, ascending nodes
            local, v = np.divmod(cells, width)
            assert np.all(local < min(per_block, len(sources) - lo))
            # no cell of a source names a node outside the source's graph
            assert np.all(v < sizes[graph_of[lo + local]])
            dist[lo + local, v] = depth
        for i, s in enumerate(sources):
            gi = graph_of[i]
            n = int(sizes[gi])
            D = floyd_warshall(graphs[gi])[s - starts[gi]]
            np.testing.assert_array_equal(dist[i, :n], np.where(D <= cap, D, -1))
            assert np.all(dist[i, n:] == -1)

    @given(graphs=graph_lists(), cap=st.integers(0, 9), limit=st.integers(0, 40),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_entry_bound_splits_blocks(self, graphs, cap, limit, data):
        # a block holds one source, or sources whose graphs' directed edges
        # sum to at most the bound, as many as fit; the distances are those
        # of the unbounded search
        sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
        total, width = int(sizes.sum()), int(sizes.max(initial=0))
        sources = list(range(total))
        if total:
            sources += data.draw(st.lists(st.integers(0, total - 1), max_size=4))
        entries = np.repeat([2 * g.num_edges for g in graphs], sizes)[sources]

        def distances(blocks):
            dist = np.full((len(sources), width), -1, dtype=np.int64)
            for lo, cells, depth in blocks:
                local, v = np.divmod(cells, width)
                dist[lo + local, v] = depth
            return dist

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_BFS_BLOCK_ENTRIES", limit)
            blocks = list(bfs_blocks(graphs, sources, cap))
        bounds = [lo for lo, _, _ in blocks] + [len(sources)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert hi - lo == 1 or entries[lo:hi].sum() <= limit
            assert hi == len(sources) or entries[lo:hi + 1].sum() > limit
        np.testing.assert_array_equal(distances(blocks),
                                      distances(bfs_blocks(graphs, sources, cap)))

    def test_a_training_split_is_one_block(self):
        # the 32 small-world graphs of 40 nodes that the benchmark trains on
        # are searched from every node in one block
        graphs = [gen_small_world(40, 4, 0.1, seed) for seed in range(32)]
        assert len(list(bfs_blocks(graphs, np.arange(32 * 40), 4))) == 1

    def test_cells_of_a_smaller_graph(self):
        # a 2-node path, then a 4-node path (union nodes 2..5): w = 4, and a
        # source's cells are (i - lo) * 4 + its node minus its graph's first
        a = build_graph(2, [(0, 1)])
        b = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        ((lo, cells, depth),) = bfs_blocks([a, b], [2, 5, 0], 2)
        assert lo == 0
        assert cells.tolist() == [0, 1, 2, 5, 6, 7, 8, 9]
        assert depth.tolist() == [0, 1, 2, 2, 1, 0, 0, 1]
        with pytest.raises(InputError):
            list(bfs_blocks([a, b], [6], 1))

    def test_no_sources_and_empty_graph(self):
        assert list(bfs_blocks([build_graph(3, [(0, 1)])], [], 2)) == []
        assert list(bfs_blocks([build_graph(0, [])], [], 2)) == []

    def test_negative_cap(self):
        with pytest.raises(InputError):
            list(bfs_blocks([build_graph(2, [(0, 1)])], [0], -1))


class TestEgo:
    def test_path_center(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        ego = extract_ego(g, 2, 1)
        assert ego.to_parent == (1, 2, 3)
        assert edge_list(ego.subgraph) == ((0, 1), (1, 2))
        assert ego.identity_mask == (False, True, False)
        assert ego.center_local_index == 1

    def test_whole_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        ego = extract_ego(g, 0, 1)
        assert ego.to_parent == (0, 1, 2)
        assert ego.subgraph.num_edges == 3
        assert ego.identity_mask == (True, False, False)

    def test_conditioning_node_outside_ball(self):
        # dist(0, 3) = 3 > k = 2, so node 3 is outside and the mask is empty
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        ego = extract_ego(g, 0, 2, identity_at=3)
        assert ego.to_parent == (0, 1, 2)
        assert ego.identity_mask == (False, False, False)
        assert not any(ego.identity_mask)

    def test_conditioning_node_inside_ball(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        ego = extract_ego(g, 0, 2, identity_at=2)
        assert ego.identity_mask == (False, False, True)

    def test_invalid_ids(self):
        g = build_graph(3, [(0, 1)])
        with pytest.raises(InputError):
            extract_ego(g, 7, 1)
        with pytest.raises(InputError):
            extract_ego(g, 0, 1, identity_at=9)

    def test_features_sliced(self):
        feats = [[1.0], [2.0], [3.0], [4.0]]
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)], node_features=feats)
        ego = extract_ego(g, 1, 1)
        assert ego.subgraph.node_features.ravel().tolist() == [1.0, 2.0, 3.0]

    @given(edges_strategy(max_n=50), st.integers(0, 49), st.integers(0, 4))
    @settings(max_examples=60)
    def test_ego_closure(self, data, center, k):
        n, edges = data
        center %= n
        g = build_graph(n, edges)
        ego = extract_ego(g, center, k)
        ball = set(ego.to_parent)
        dist = bfs_distances(g, center, k)
        assert ball == {v for v in range(n) if dist[v] is not None}
        # induced property: every parent edge inside the ball appears
        local = {p: i for i, p in enumerate(ego.to_parent)}
        expected = {
            (local[u], local[v]) for u, v in edge_list(g) if u in ball and v in ball
        }
        assert set(edge_list(ego.subgraph)) == expected


def _without_features(ego):
    return replace(ego, subgraph=replace(ego.subgraph, node_features=None))


@given(edges_strategy(), st.integers(0, 29), st.integers(0, 4),
       st.none() | st.integers(0, 29), st.booleans())
@settings(max_examples=150)
def test_extract_ego_equals_reference(data, center, k, identity_at, with_features):
    # identities drawn from every node land inside and outside the ball
    n, edges = data
    feats = np.arange(2.0 * n).reshape(n, 2) if with_features else None
    g = build_graph(n, edges, node_features=feats)
    center %= n
    identity_at = None if identity_at is None else identity_at % n
    ego = extract_ego(g, center, k, identity_at=identity_at)
    ref = ego_by_induced_edges(g, center, k, identity_at=identity_at)
    assert same_ego(_without_features(ego), _without_features(ref))
    assert ego.depth == ref.depth
    if with_features:
        np.testing.assert_array_equal(ego.subgraph.node_features,
                                      ref.subgraph.node_features)
        assert not ego.subgraph.node_features.flags.writeable
    else:
        assert ego.subgraph.node_features is None


def test_relabel_roundtrip():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], node_features=[[0.0], [1.0], [2.0], [3.0]])
    perm = [2, 0, 3, 1]
    h = relabel_graph(g, perm)
    assert h.num_edges == g.num_edges
    assert sorted(h.degrees()) == sorted(g.degrees())
    # features follow their nodes
    for v in range(4):
        assert h.node_features[perm[v], 0] == g.node_features[v, 0]


@st.composite
def relabel_cases(draw):
    """A graph of 0..9 nodes (repeated edges and self-loops in its list),
    with or without features, and a permutation as a list or an array."""
    n = draw(st.integers(0, 9))
    ends = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n)) if n else []
    feats = None
    if draw(st.booleans()):
        width = draw(st.integers(0, 2))
        feats = np.array([draw(st.integers(-3, 3)) for _ in range(n * width)],
                         dtype=np.float64).reshape(n, width)
    perm = draw(st.permutations(range(n)))
    return n, edges, feats, np.array(perm, dtype=np.int64) if draw(st.booleans()) else perm


@given(relabel_cases())
@settings(max_examples=200, deadline=None)
def test_relabel_equals_per_edge_build(case):
    n, edges, feats, perm = case
    h = relabel_graph(build_graph(n, edges, feats), perm)
    ref_feats = None
    if feats is not None:
        ref_feats = np.zeros_like(feats)
        ref_feats[list(perm)] = feats
    _, ref_edges, ref_adjacency, ref_feats = build_graph_per_edge(
        n, [(perm[u], perm[v]) for u, v in edges], ref_feats)
    assert h.num_nodes == n and edge_list(h) == ref_edges
    assert neighbor_lists(h) == ref_adjacency
    if ref_feats is None:
        assert h.node_features is None
    else:
        np.testing.assert_array_equal(h.node_features, ref_feats)
        assert h.node_features.shape == ref_feats.shape
        assert not h.node_features.flags.writeable


@pytest.mark.parametrize("perm", [
    [0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 4], [-1, 0, 1, 2],
    [0, 1, 2, 2**70], [[0, 1, 2, 3]], ["a", "b", "c", "d"], 3,
], ids=["repeated", "short", "long", "out-of-range", "negative", "past-64-bits", "2-d",
        "strings", "scalar"])
def test_relabel_rejects_a_non_permutation(perm):
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError, match="^perm is not a permutation of the node ids$"):
        relabel_graph(g, perm)


@given(graph_lists())
@settings(max_examples=200, deadline=None)
def test_union_csr_equals_adjacency_union(graphs):
    indptr, indices = union_csr(graphs)
    ref_indptr, ref_indices = union_by_adjacency(graphs)
    for got, ref in ((indptr, ref_indptr), (indices, ref_indices)):
        np.testing.assert_array_equal(got, ref)
        assert got.dtype == np.int64
    # the per-graph arrays are read, never shifted in place
    for g in graphs:
        np.testing.assert_array_equal(g.indptr, union_by_adjacency([g])[0])
        np.testing.assert_array_equal(g.indices, union_by_adjacency([g])[1])


def test_union_csr_edge_cases():
    for graphs, n in (([], 0), ([build_graph(0, [])], 0),
                      ([build_graph(0, []), build_graph(3, [(0, 2)]), build_graph(0, [])], 3)):
        indptr, indices = union_csr(graphs)
        assert indptr.size == n + 1 and indptr[0] == 0
    indptr, indices = union_csr([build_graph(2, []), build_graph(3, [(0, 2)])])
    assert indptr.tolist() == [0, 0, 0, 1, 1, 2]
    assert indices.tolist() == [4, 2]
