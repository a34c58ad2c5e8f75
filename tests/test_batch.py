"""A disjoint-union batch computes what the single-item entry points and an
independent dense reference compute.

One forward and one backward over make_batch must give the same row
embeddings, parameter gradients and input gradients, to within 1e-12, as
one-graph batches through backward_layers (plain, id_fast) or one-anchor
batches through backward_id_full (id_full), and as
oracles.dense_reference, which runs every row of every layer. Input
gradients are compared summed onto the rows of each graph's inputs: an
id_full batch reads a node's input through one whole-graph row wherever
its egos' rows compute the plain value.

An id_full batch must also give the embeddings, bit for bit, of the
unshared batch of the same ego layout, in which every ego net computes
alone, and read and write no more rows in any layer. The ego layout itself
must equal, array for array, the one built from
oracles.ego_by_induced_edges one anchor at a time and laid out as one union
by oracles.union_by_adjacency.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from idgnn import graph
from idgnn.errors import InputError
from idgnn.graph import build_graph, ego_union, extract_ego
from idgnn.nn import (
    Batch,
    ModelConfig,
    _GraphOps,
    backward_id_full,
    backward_layers,
    forward_batch,
    forward_id_full,
    init_model,
    make_batch,
    zero_grads,
)
from gradcheck import randomize
from oracles import (
    dense_reference,
    ego_by_induced_edges,
    ego_layout_per_graph,
    union_by_adjacency,
)

SCHEMES = [("gcn", "mean"), ("sage", "sum"), ("sage", "mean"), ("sage", "max"),
           ("gin", "sum")]
VARIANTS = ["plain", "id_full", "id_fast"]
TOL = 1e-12


@st.composite
def graphs_with_isolated_nodes(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    isolated = draw(st.integers(0, 2))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return build_graph(n + isolated, draw(st.lists(pairs, max_size=2 * n)))


@st.composite
def cases(draw, scheme=None, variant=None):
    flavor, agg = scheme or draw(st.sampled_from(SCHEMES))
    variant = variant or draw(st.sampled_from(VARIANTS))
    cfg = ModelConfig(flavor=flavor, variant=variant, aggregation=agg,
                      num_layers=draw(st.integers(1, 3)), hidden_dim=3,
                      input_dim=2, output_dim=2, fast_k=1, seed=draw(st.integers(0, 9)))
    graphs = draw(st.lists(graphs_with_isolated_nodes(), min_size=1, max_size=3))
    # anchors pair arbitrary nodes, so identities often fall outside the
    # ball, and always do when they sit on an isolated node
    anchors = [draw(st.lists(st.tuples(st.integers(0, g.num_nodes - 1),
                                       st.integers(0, g.num_nodes - 1)), max_size=4))
               for g in graphs]
    return cfg, graphs, anchors, draw(st.integers(0, 2**31))


def assert_grads_close(a, b):
    assert a.keys() == b.keys()
    for name in a:
        np.testing.assert_allclose(a[name], b[name], rtol=0, atol=TOL, err_msg=name)


def onto_inputs(nodes, G_x, num_nodes):
    """Input-row gradients ``G_x`` summed onto the stacked input rows
    ``nodes`` of graphs with ``num_nodes`` nodes in all."""
    out = np.zeros((num_nodes, G_x.shape[1]))
    np.add.at(out, nodes, G_x)
    return out


def unshared_batch(ops, depth, node, x, num_layers):
    """The id_full batch of an ego layout with no whole-graph rows: each ego
    net computes alone, its rows in ego-major order. ``x`` stacks the
    graphs' inputs."""
    every, layers, rows = np.arange(ops.n), [], np.flatnonzero(depth == 0)
    for _ in range(num_layers):
        layer, rows = ops.trim(rows, every, every)
        layers.insert(0, layer)
    return Batch(x[node[rows]], layers, node[rows])


@given(cases())
@settings(max_examples=200, deadline=None)
def test_batch_equals_per_item(case):
    cfg, graphs, anchors, seed = case
    model = init_model(cfg)
    randomize(model, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(g.num_nodes, 2)) for g in graphs]
    full = cfg.variant == "id_full"
    batch = make_batch(model, graphs, xs, anchors if full else None)
    tape = []
    H = forward_batch(model, batch, tape)
    G_rows = rng.normal(size=H.shape)
    grads, G_x = backward_layers(model, tape, G_rows)

    ref_grads = zero_grads(model)
    rows, G_x_ref = [], [np.zeros((g.num_nodes, 2)) for g in graphs]
    if full:
        items = [(i, u, v) for i, pairs in enumerate(anchors) for u, v in pairs]
        for (i, u, v), g_row in zip(items, G_rows):
            item_tape = []
            item = make_batch(model, [graphs[i]], [xs[i]], [[(u, v)]])
            rows.append(forward_batch(model, item, item_tape)[0])
            G_item = backward_id_full(model, item_tape, g_row, ref_grads)[1]
            G_x_ref[i] += onto_inputs(item.nodes, G_item, graphs[i].num_nodes)
        outside = sum(not any(extract_ego(graphs[i], u, cfg.num_layers,
                                          identity_at=v).identity_mask)
                      for i, u, v in items)
        assert batch.layers[0].identity.sum() == len(items) - outside
    else:
        offset = 0
        for i, (g, x) in enumerate(zip(graphs, xs)):
            item_tape = []
            item = make_batch(model, [g], [x])
            rows.append(forward_batch(model, item, item_tape))
            G_item = G_rows[offset:offset + g.num_nodes]
            G_item = backward_layers(model, item_tape, G_item, ref_grads)[1]
            G_x_ref[i] += onto_inputs(item.nodes, G_item, g.num_nodes)
            offset += g.num_nodes
    expected = np.concatenate([np.zeros((0, cfg.hidden_dim))] + [np.atleast_2d(r) for r in rows])
    np.testing.assert_allclose(H, expected, rtol=0, atol=TOL)
    np.testing.assert_allclose(onto_inputs(batch.nodes, G_x, sum(g.num_nodes for g in graphs)),
                               np.concatenate(G_x_ref), rtol=0, atol=TOL)
    assert_grads_close(grads, ref_grads)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: "-".join(s))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_batch_equals_dense_oracle(scheme, variant, data):
    cfg, graphs, anchors, seed = data.draw(cases(scheme, variant))
    model = init_model(cfg)
    randomize(model, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    # inputs in {-1, 0, 1} repeat rows, so max aggregation meets ties
    integer = data.draw(st.booleans())
    xs = [rng.integers(-1, 2, size=(g.num_nodes, 2)).astype(float) if integer
          else rng.normal(size=(g.num_nodes, 2)) for g in graphs]
    anchors = anchors if variant == "id_full" else None
    batch = make_batch(model, graphs, xs, anchors)
    tape = []
    H = forward_batch(model, batch, tape)
    G_rows = rng.normal(size=H.shape)
    grads, G_x = backward_layers(model, tape, G_rows)
    H_ref, grads_ref, G_x_ref = dense_reference(model, graphs, xs, anchors, G_rows)
    np.testing.assert_allclose(H, H_ref, rtol=0, atol=TOL)
    # dense_reference stacks each unit's local inputs: every ego's or graph's
    starts = np.cumsum([0] + [g.num_nodes for g in graphs])
    if variant == "id_full":
        ref_nodes = [start + np.array(ego_by_induced_edges(g, u, cfg.num_layers).to_parent,
                                      dtype=np.int64)
                     for g, start, pairs in zip(graphs, starts, anchors) for u, _ in pairs]
    else:
        ref_nodes = [np.arange(starts[-1])]
    ref_nodes = np.concatenate([np.zeros(0, dtype=np.int64)] + ref_nodes)
    np.testing.assert_allclose(onto_inputs(batch.nodes, G_x, starts[-1]),
                               onto_inputs(ref_nodes, G_x_ref, starts[-1]), rtol=0, atol=TOL)
    assert_grads_close(grads, grads_ref)


def test_identity_outside_ball_runs_plain_scheme():
    # path 0-1-2-3 plus isolated node 4; one layer, so the ego of 0 does not
    # reach identity 3 and the ego of 2 does not reach the isolated node
    g = build_graph(5, [(0, 1), (1, 2), (2, 3)])
    cfg = ModelConfig(flavor="sage", variant="id_full", num_layers=1, hidden_dim=3,
                      input_dim=2, output_dim=2, aggregation="max", seed=1)
    model = init_model(cfg)
    randomize(model, seed=5)
    x = np.random.default_rng(2).normal(size=(5, 2))
    anchors = [(0, 3), (4, 4), (2, 4), (1, 1)]
    batch = unshared_batch(*ego_layout([g], [anchors], 1), x, 1)
    # egos {0, 1}, {4}, {1, 2, 3}, {0, 1, 2}
    assert batch.layers[0].n_in == 9
    assert center_rows(batch).tolist() == [0, 2, 4, 7]
    assert batch.layers[0].identity.tolist() == [False, False, True, False, False, False,
                                                 False, True, False]
    for H in (forward_batch(model, batch),
              forward_batch(model, make_batch(model, [g], [x], [anchors]))):
        for row, (u, v) in zip(H, anchors):
            np.testing.assert_allclose(row, forward_id_full(model, g, u, v, x),
                                       rtol=0, atol=TOL)


def ego_layout(graphs, anchors, k):
    """The ego rows of an id_full make_batch, from its one ego_union: their
    operators, with the identity masks, and per row its hops from its ego's
    center and its node in the disjoint union of the graphs."""
    egos = ego_union(graphs, anchors, k)
    return _GraphOps(egos.deg, egos.nbr, egos.identity), egos.depth, egos.parent


def center_rows(batch):
    """The union row of each embedded node: every layer's ``keep`` composed."""
    rows = np.arange(batch.layers[0].n_in)
    for ops in batch.layers:
        rows = rows if ops.keep is None else rows[ops.keep]
    return rows


def assert_ops_equal(ops, ref):
    for name in ("deg", "nbr", "deg_in", "identity"):
        np.testing.assert_array_equal(getattr(ops, name), getattr(ref, name), err_msg=name)
        assert getattr(ops, name).dtype == getattr(ref, name).dtype, name
    assert (ops.keep is None) == (ref.keep is None)
    if ops.keep is not None:
        np.testing.assert_array_equal(ops.keep, ref.keep, err_msg="keep")


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_id_full_operators_equal_oracle_egos(data):
    # arbitrary anchors put identities outside the ball and on isolated
    # nodes, an empty anchor list leaves a graph out, None anchors every
    # node at itself; small search blocks split each graph's centers
    cfg, graphs, anchors, seed = data.draw(cases(variant="id_full"))
    anchors = [data.draw(st.sampled_from([None, pairs, []])) for pairs in anchors]
    if data.draw(st.booleans()):
        anchors = None
    k = cfg.num_layers
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(size=(g.num_nodes, 2)) for g in graphs])
    cells = data.draw(st.sampled_from([None, 1, 2, 3, 5, 8, 13]))
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", cells)
        batch = unshared_batch(*ego_layout(graphs, anchors, k), x, k)

    egos, nodes, start = [], [np.zeros(0, dtype=np.int64)], 0
    for i, g in enumerate(graphs):
        pairs = anchors[i] if anchors is not None else None
        for u, v in [(v, v) for v in range(g.num_nodes)] if pairs is None else pairs:
            egos.append(ego_by_induced_edges(g, u, k, identity_at=v))
            nodes.append(start + np.array(egos[-1].to_parent, dtype=np.int64))
        start += g.num_nodes
    identity = np.array([f for ego in egos for f in ego.identity_mask], dtype=bool)
    depth = np.array([d for ego in egos for d in ego.depth], dtype=np.int64)
    indptr, nbr = union_by_adjacency([ego.subgraph for ego in egos])
    ref = unshared_batch(_GraphOps(np.diff(indptr), nbr, identity), depth,
                         np.concatenate(nodes), x, k)

    assert len(batch.layers) == len(ref.layers) == k
    for ops, ref_ops in zip(batch.layers, ref.layers):
        assert_ops_equal(ops, ref_ops)
    np.testing.assert_array_equal(center_rows(batch), center_rows(ref))
    assert batch.x.tobytes() == ref.x.tobytes() and batch.x.shape == ref.x.shape
    np.testing.assert_array_equal(batch.nodes, ref.nodes)


@st.composite
def split_layouts(draw):
    """Graphs of mixed sizes, with empty graphs (n = 0) and isolated nodes;
    per graph None (every node at itself), no anchors or arbitrary pairs,
    whose identities often fall outside the ball, or None for every graph;
    a radius; and 1-3 sources per search block, or the default."""
    graphs = []
    for n in draw(st.lists(st.integers(0, 9), max_size=5)):
        ends = st.integers(0, max(n - 1, 0))
        graphs.append(build_graph(n, draw(st.lists(st.tuples(ends, ends), max_size=n + 2))
                                  if n else []))
    anchors = []
    for g in graphs:
        nodes = st.integers(0, max(g.num_nodes - 1, 0))
        pairs = st.lists(st.tuples(nodes, nodes), min_size=1, max_size=5)
        choices = [st.none(), st.just([])] + ([pairs] if g.num_nodes else [])
        anchors.append(draw(st.one_of(choices)))
    if draw(st.booleans()):
        anchors = None
    return graphs, anchors, draw(st.integers(0, 4)), draw(st.sampled_from([None, 1, 2, 3]))


@given(split_layouts())
@settings(max_examples=300, deadline=None)
def test_ego_layout_equals_per_graph(case):
    # one search over the split gives the arrays of one search per graph
    graphs, anchors, k, per_block = case
    width = max((g.num_nodes for g in graphs), default=0)
    with pytest.MonkeyPatch.context() as mp:
        if per_block is not None:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", per_block * width)
        ops, depth, node = ego_layout(graphs, anchors, k)
    ref = ego_layout_per_graph(graphs, anchors, k)
    for name, got, want in zip(("deg", "nbr", "identity", "depth", "node"),
                               (ops.deg, ops.nbr, ops.identity, depth, node), ref):
        np.testing.assert_array_equal(got, want, err_msg=name)
        assert got.dtype == want.dtype, name


def test_ego_layout_checks_anchors_per_graph():
    # node 2 exists in the union of the two graphs, but not in graph 0
    graphs = [build_graph(2, [(0, 1)]), build_graph(3, [(0, 1)])]
    with pytest.raises(InputError, match="center 2 out of range for graph with 2 nodes"):
        ego_layout(graphs, [[(2, 0)], None], 1)
    with pytest.raises(InputError, match="identity_at 3 out of range for graph with 3 nodes"):
        ego_layout(graphs, [None, [(0, 1), (1, 3)]], 1)
    with pytest.raises(InputError, match="center ids must be integers"):
        ego_layout(graphs, [[], [(0.5, 1)]], 1)


@given(cases())
@settings(max_examples=150, deadline=None)
def test_gcn_operator_equals_coo_construction(case):
    # A_gcn is built straight as CSR; scipy's COO route gives the same arrays
    cfg, graphs, anchors, seed = case
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(g.num_nodes, 2)) for g in graphs]
    batch = make_batch(init_model(cfg), graphs, xs,
                       anchors if cfg.variant == "id_full" else None)
    for ops in batch.layers:
        loops = np.arange(ops.n)
        rows = np.concatenate([np.repeat(loops, ops.deg), loops])
        cols = np.concatenate([ops.nbr, loops if ops.keep is None else ops.keep])
        data = (1.0 / np.sqrt(ops.deg + 1.0))[rows] * (1.0 / np.sqrt(ops.deg_in + 1.0))[cols]
        ref = sp.csr_matrix((data, (rows, cols)), shape=(ops.n, ops.n_in))
        got = ops.A_gcn
        assert got.shape == ref.shape
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
            assert getattr(got, name).dtype == getattr(ref, name).dtype, name


@st.composite
def sharing_cases(draw, scheme):
    # graphs large enough for radius-4 egos to be truncated; identities
    # outside the ball, repeated anchors and centers that are their own
    # identity
    flavor, agg = scheme
    cfg = ModelConfig(flavor=flavor, variant="id_full", aggregation=agg,
                      num_layers=draw(st.integers(1, 4)), hidden_dim=3, input_dim=2,
                      output_dim=2, seed=draw(st.integers(0, 9)))
    graphs = draw(st.lists(graphs_with_isolated_nodes(max_n=12), min_size=1, max_size=3))
    anchors = []
    for g in graphs:
        nodes = st.integers(0, g.num_nodes - 1)
        pairs = draw(st.lists(st.tuples(nodes, nodes), max_size=4))
        if pairs:
            pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
        anchors.append(pairs + [(v, v) for v in draw(st.lists(nodes, max_size=2))])
    return cfg, graphs, anchors, draw(st.integers(0, 2**31))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: "-".join(s))
def test_shared_batch_equals_unshared(scheme):
    shares = []

    @given(sharing_cases(scheme))
    @settings(max_examples=60, deadline=None)
    def check(case):
        cfg, graphs, anchors, seed = case
        model = init_model(cfg)
        randomize(model, seed=seed % 1000)
        rng = np.random.default_rng(seed)
        xs = [rng.normal(size=(g.num_nodes, 2)) for g in graphs]
        k, n = cfg.num_layers, sum(g.num_nodes for g in graphs)
        batch = make_batch(model, graphs, xs, anchors)
        ref = unshared_batch(*ego_layout(graphs, anchors, k), np.concatenate(xs), k)
        for ops, ref_ops in zip(batch.layers, ref.layers):
            assert ops.n_in <= ref_ops.n_in and ops.n <= ref_ops.n
        shares.append(sum(ops.n_in for ops in batch.layers)
                      < sum(ops.n_in for ops in ref.layers))
        tape, ref_tape = [], []
        H = forward_batch(model, batch, tape)
        H_ref = forward_batch(model, ref, ref_tape)
        assert H.shape == H_ref.shape and H.tobytes() == H_ref.tobytes()
        G_rows = rng.normal(size=H.shape)
        grads, G_x = backward_layers(model, tape, G_rows)
        grads_ref, G_x_ref = backward_layers(model, ref_tape, G_rows)
        assert_grads_close(grads, grads_ref)
        np.testing.assert_allclose(onto_inputs(batch.nodes, G_x, n),
                                   onto_inputs(ref.nodes, G_x_ref, n), rtol=0, atol=TOL)

    check()
    assert sum(shares) >= 10, shares


def test_a_layer_reading_one_row_rounds_as_the_unshared_batch():
    # both anchors of an edgeless graph read one whole-graph row, so every
    # layer of the shared batch reads a single row, whose messages numpy
    # would multiply with gemv where the unshared batch uses gemm
    cfg = ModelConfig(flavor="gcn", variant="id_full", num_layers=3, hidden_dim=3,
                      input_dim=2, output_dim=2, aggregation="mean", seed=0)
    model = init_model(cfg)
    randomize(model, seed=620)
    g = build_graph(2, [])
    x = np.random.default_rng(27620).normal(size=(2, 2))
    batch = make_batch(model, [g], [x], [[(1, 0), (1, 0)]])
    assert [ops.n_in for ops in batch.layers] == [1, 1, 1]
    ref = unshared_batch(*ego_layout([g], [[(1, 0), (1, 0)]], 3), x, 3)
    assert forward_batch(model, batch).tobytes() == forward_batch(model, ref).tobytes()
