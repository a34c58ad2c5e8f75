"""A disjoint-union batch computes what the single-item entry points and an
independent dense reference compute.

One forward and one backward over make_batch must give the same row
embeddings, parameter gradients and input gradients, to within 1e-12, as
one-graph batches through backward_layers (plain, id_fast) or one-anchor
batches through backward_id_full (id_full), and as
oracles.dense_reference, which runs every row of every layer. The id_full
operators themselves must equal, array for array, those built from
oracles.ego_by_induced_edges one anchor at a time and laid out as one union
by oracles.union_by_adjacency.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn import graph
from idgnn.graph import build_graph, extract_ego
from idgnn.nn import (
    ModelConfig,
    _ego_batch,
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
from oracles import dense_reference, ego_by_induced_edges, union_by_adjacency

SCHEMES = [("gcn", "mean"), ("sage", "sum"), ("sage", "mean"), ("sage", "max"),
           ("gin", "sum")]
VARIANTS = ["plain", "id_full", "id_fast"]
TOL = 1e-12


@st.composite
def graphs_with_isolated_nodes(draw):
    n = draw(st.integers(1, 7))
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
    rows, G_x_ref = [], []
    if full:
        items = [(g, x, u, v) for g, x, pairs in zip(graphs, xs, anchors) for u, v in pairs]
        for (g, x, u, v), g_row in zip(items, G_rows):
            item_tape = []
            rows.append(forward_batch(model, make_batch(model, [g], [x], [[(u, v)]]),
                                      item_tape)[0])
            G_x_ref.append(backward_id_full(model, item_tape, g_row, ref_grads)[1])
        outside = sum(not any(extract_ego(g, u, cfg.num_layers, identity_at=v).identity_mask)
                      for g, _, u, v in items)
        assert batch.layers[0].identity.sum() == len(items) - outside
    else:
        offset = 0
        for g, x in zip(graphs, xs):
            item_tape = []
            rows.append(forward_batch(model, make_batch(model, [g], [x]), item_tape))
            G_item = G_rows[offset:offset + g.num_nodes]
            G_x_ref.append(backward_layers(model, item_tape, G_item, ref_grads)[1])
            offset += g.num_nodes
    expected = np.concatenate([np.zeros((0, cfg.hidden_dim))] + [np.atleast_2d(r) for r in rows])
    np.testing.assert_allclose(H, expected, rtol=0, atol=TOL)
    np.testing.assert_allclose(G_x, np.concatenate([np.zeros((0, 2))] + G_x_ref),
                               rtol=0, atol=TOL)
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
    np.testing.assert_allclose(G_x, G_x_ref, rtol=0, atol=TOL)
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
    batch = make_batch(model, [g], [x], [[(0, 3), (4, 4), (2, 4), (1, 1)]])
    # egos {0, 1}, {4}, {1, 2, 3}, {0, 1, 2}
    assert batch.layers[0].n_in == 9
    assert center_rows(batch).tolist() == [0, 2, 4, 7]
    assert batch.layers[0].identity.tolist() == [False, False, True, False, False, False,
                                                 False, True, False]
    H = forward_batch(model, batch)
    for row, (u, v) in zip(H, [(0, 3), (4, 4), (2, 4), (1, 1)]):
        np.testing.assert_allclose(row, forward_id_full(model, g, u, v, x),
                                   rtol=0, atol=TOL)


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
    model = init_model(cfg)
    rng = np.random.default_rng(seed)
    xs = [rng.normal(size=(g.num_nodes, 2)) for g in graphs]
    cells = data.draw(st.sampled_from([None, 1, 2, 3, 5, 8, 13]))
    with pytest.MonkeyPatch.context() as mp:
        if cells is not None:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", cells)
        batch = make_batch(model, graphs, xs, anchors)

    egos, ego_xs = [], [np.zeros((0, 2))]
    for i, (g, x) in enumerate(zip(graphs, xs)):
        pairs = anchors[i] if anchors is not None else None
        for u, v in [(v, v) for v in range(g.num_nodes)] if pairs is None else pairs:
            egos.append(ego_by_induced_edges(g, u, cfg.num_layers, identity_at=v))
            ego_xs.append(x[list(egos[-1].to_parent)])
    identity = np.array([f for ego in egos for f in ego.identity_mask], dtype=bool)
    depth = np.array([d for ego in egos for d in ego.depth], dtype=np.int64)
    indptr, nbr = union_by_adjacency([ego.subgraph for ego in egos])
    ref = _ego_batch(_GraphOps(np.diff(indptr), nbr, identity), depth,
                     np.concatenate(ego_xs), cfg.num_layers)

    assert len(batch.layers) == len(ref.layers) == cfg.num_layers
    for ops, ref_ops in zip(batch.layers, ref.layers):
        assert_ops_equal(ops, ref_ops)
    np.testing.assert_array_equal(center_rows(batch), center_rows(ref))
    assert batch.x.tobytes() == ref.x.tobytes() and batch.x.shape == ref.x.shape
