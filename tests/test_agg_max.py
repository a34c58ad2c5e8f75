"""Max aggregation against a per-node loop, and its sender-free path: a
pass without a tape builds no sender table but writes the same maxima, bit
for bit, and so the same embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn.generators import GeneratorSpec, gen_dataset
from idgnn.graph import build_graph
from idgnn.nn import (
    ModelConfig,
    _agg_max,
    _agg_max_backward,
    _GraphOps,
    forward_batch,
    init_model,
    input_features,
    make_batch,
)
from gradcheck import randomize
from oracles import max_aggregate_naive, max_scatter_naive, neighbor_lists, union_by_adjacency


def graph_ops(g):
    indptr, nbr = union_by_adjacency([g])
    return _GraphOps(np.diff(indptr), nbr)


def agg_max_both_ways(M, ops):
    """The maxima and senders of _agg_max, after checking that the
    sender-free call returns no senders and the same maxima, bit for bit."""
    S, src = _agg_max(M, ops)
    S_free, none = _agg_max(M, ops, senders=False)
    assert none is None
    assert S_free.dtype == S.dtype and S_free.tobytes() == S.tobytes()
    return S, src


@st.composite
def graph_and_messages(draw):
    """A graph whose last ``isolated`` nodes have no edges, with small
    integer-valued messages and upstream gradients so ties are common and
    every sum is exact."""
    n = draw(st.integers(1, 12))
    isolated = draw(st.integers(0, 2))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    g = build_graph(n + isolated, edges)
    d = draw(st.integers(1, 4))
    ints = st.lists(st.integers(-2, 2), min_size=g.num_nodes * d,
                    max_size=g.num_nodes * d)
    M = np.array(draw(ints), dtype=np.float64).reshape(g.num_nodes, d)
    G_S = np.array(draw(ints), dtype=np.float64).reshape(g.num_nodes, d)
    return g, M, G_S


@given(graph_and_messages())
@settings(max_examples=150)
def test_agg_max_matches_naive_loop(case):
    g, M, G_S = case
    S, src = agg_max_both_ways(M, graph_ops(g))
    S_ref, src_ref = max_aggregate_naive(M, g)
    np.testing.assert_array_equal(S, S_ref)
    np.testing.assert_array_equal(src, src_ref)
    isolated = [v for v, nbrs in enumerate(neighbor_lists(g)) if not nbrs]
    assert (src[isolated] == -1).all()
    np.testing.assert_array_equal(
        _agg_max_backward(G_S, src, g.num_nodes),
        max_scatter_naive(G_S, src_ref, g.num_nodes),
    )


def test_ties_route_to_lowest_neighbor():
    # node 0 sees neighbors 1, 2, 3; columns tie on {2, 3}, {1, 2, 3}, {1, 3}
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    M = np.array([[9.0, 9.0, 9.0],
                  [0.0, 5.0, 4.0],
                  [3.0, 5.0, 1.0],
                  [3.0, 5.0, 4.0]])
    S, src = agg_max_both_ways(M, graph_ops(g))
    assert S[0].tolist() == [3.0, 5.0, 4.0]
    assert src[0].tolist() == [2, 1, 1]
    assert src[1:].tolist() == [[0, 0, 0]] * 3


def test_nan_message_makes_a_nan_max_sent_by_the_first_neighbor():
    # node 0 sees neighbors 1, 2, 3; neighbor 2's message is NaN in column 0
    g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    M = np.array([[0.0, 0.0],
                  [1.0, 1.0],
                  [np.nan, 7.0],
                  [5.0, 2.0]])
    S, src = agg_max_both_ways(M, graph_ops(g))
    assert np.isnan(S[0, 0]) and src[0, 0] == 1
    assert S[0, 1] == 7.0 and src[0, 1] == 2
    assert not np.isnan(S[1:]).any()
    assert src[1:].tolist() == [[0, 0]] * 3


def test_bucket_plan_on_a_skewed_batch():
    # a hub of degree 300 (past 255, so its slot weights take 16 bits), five
    # isolated nodes and a path of five nodes
    edges = [(0, j) for j in range(1, 301)] + [(j, j + 1) for j in range(306, 310)]
    g = build_graph(311, edges)
    adjacency = neighbor_lists(g)
    has_nbrs = np.array([len(a) > 0 for a in adjacency])
    M = np.random.default_rng(0).integers(-2, 3, size=(g.num_nodes, 3)).astype(float)
    S_ref, src_ref = max_aggregate_naive(M, g)
    ops = graph_ops(g)
    every = np.arange(g.num_nodes)
    # a layer that writes the hub, an isolated node and path nodes, and
    # reads their neighbors and themselves
    kept = np.array([0, 1, 302, 306, 308])
    trimmed, read = ops.trim(kept, every, every)
    for ops, rows_in, rows_out in ((ops, every, every), (trimmed, read, kept)):
        seen = np.zeros(ops.n, dtype=int)
        degrees = []
        for rows, table in ops.buckets:
            seen[rows] += 1
            degrees.append(table.shape[0])
            assert table.shape == (ops.deg[rows[0]], len(rows))
            for r, nbrs in zip(rows, table.T):
                assert rows_in[nbrs].tolist() == list(adjacency[rows_out[r]])
                assert (np.diff(nbrs) > 0).all()
        assert degrees == sorted(set(degrees))
        np.testing.assert_array_equal(seen, has_nbrs[rows_out])
        S, src = agg_max_both_ways(M[rows_in], ops)
        np.testing.assert_array_equal(S, S_ref[rows_out])
        np.testing.assert_array_equal(np.where(src >= 0, rows_in[src], -1), src_ref[rows_out])
        isolated = ~has_nbrs[rows_out]
        assert isolated.any()
        assert (S[isolated] == 0.0).all() and (src[isolated] == -1).all()


def test_infinite_and_nan_messages_without_senders():
    # node 0 sees neighbors 1..4: column 0 holds -inf and +inf, column 1
    # only -inf, column 2 a NaN after a larger value, column 3 a -0.0 tie
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    inf, nan = np.inf, np.nan
    M = np.array([[0.0, 0.0, 0.0, 0.0],
                  [-inf, -inf, 3.0, -0.0],
                  [inf, -inf, nan, 0.0],
                  [1.0, -inf, 1.0, -0.0],
                  [inf, -inf, 2.0, -1.0]])
    S, src = agg_max_both_ways(M, graph_ops(g))
    assert S[0, 0] == inf and src[0, 0] == 2
    assert S[0, 1] == -inf and src[0, 1] == 1
    assert np.isnan(S[0, 2])
    assert S[0, 3] == 0.0


MIXED = (gen_dataset(GeneratorSpec("small_world", 14, 4, 0.3), 2, seed=5)
         + gen_dataset(GeneratorSpec("scale_free", 16, 2, 0.3), 2, seed=6))
SCHEMES = [("gcn", "mean"), ("sage", "sum"), ("sage", "mean"), ("sage", "max"),
           ("gin", "sum")]


@pytest.mark.parametrize("variant", ["plain", "id_full", "id_fast"])
@pytest.mark.parametrize("flavor, aggregation", SCHEMES)
def test_forward_without_tape_is_bitwise_equal(flavor, variant, aggregation):
    # one batch of small-world and scale-free graphs (degrees 2 to 9, so
    # eight max buckets), every node embedded; id_full anchors each node at
    # itself
    fast_k = 4 if variant == "id_fast" else 10
    cfg = ModelConfig(flavor=flavor, variant=variant, num_layers=3, hidden_dim=6,
                      input_dim=1 + fast_k if variant == "id_fast" else 1,
                      output_dim=3, aggregation=aggregation, fast_k=fast_k, seed=1)
    model = init_model(cfg)
    randomize(model, 2)
    batch = make_batch(model, MIXED, input_features(cfg, MIXED))
    tape: list = []
    taped = forward_batch(model, batch, tape)
    untaped = forward_batch(model, batch)
    assert len(tape) == 3 and taped.shape == (sum(g.num_nodes for g in MIXED), 6)
    assert taped.tobytes() == untaped.tobytes()
    assert np.abs(taped).max() > 0.0
