import collections
import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from idgnn import graph
from idgnn.errors import InputError, NumericError
from idgnn.generators import GeneratorSpec, gen_dataset, gen_small_world
from idgnn.graph import build_graph
from idgnn.nn import (
    ModelConfig,
    edge_pair_score,
    forward_id_full,
    forward_plain,
    head_logits,
    init_model,
    input_features,
    zero_grads,
)
from idgnn.optim import loss_xent
from idgnn.tasks import (
    GRAPH_CC_BINS,
    NODE_CC_BINS,
    _backward,
    _forward,
    _prepare,
    evaluate,
    make_graph_cc_task,
    make_node_cc_task,
    make_spd_task,
    predictions,
    split,
    task_wiring,
    train,
)
from gradcheck import randomize
from oracles import (
    bin_index,
    clustering_direct,
    random_mixed_graphs,
    spd_pairs_sequential,
    spd_task_per_graph,
)

K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
STAR = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
PAW = build_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
# node 0 has degree 5 and 3 links among its neighbors: c = 0.3 exactly, the
# lower edge of node bin 3
DEG5_ON_EDGE = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                               (1, 2), (2, 3), (3, 4)])


def tiny_dataset(count=10, seed=0):
    return gen_dataset(GeneratorSpec("small_world", 20, 4, 0.3), count, seed)


class TestNodeCcTask:
    def test_triangle_top_bin(self):
        task = make_node_cc_task([K3])
        assert task.items[0].node_labels.tolist() == [9, 9, 9]

    def test_star_bottom_bin(self):
        task = make_node_cc_task([STAR])
        assert task.items[0].node_labels.tolist() == [0] * 5

    def test_paw_hub_third_bin(self):
        # c = 1/3 = 0.333... falls in [0.3, 0.4)
        task = make_node_cc_task([PAW])
        assert task.items[0].node_labels[0] == 3


class TestGraphCcTask:
    def test_edgeless(self):
        g = build_graph(4, [])
        task = make_graph_cc_task([g])
        assert task.items[0].graph_label == 0

    def test_disjoint_triangles_clamped_top(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        task = make_graph_cc_task([g])
        assert task.items[0].graph_label == 9

    def test_ring_lattice_top_bin(self):
        g = gen_small_world(12, 4, 0.0, 0)  # every node c = 0.5
        task = make_graph_cc_task([g])
        assert task.items[0].graph_label == 9


@st.composite
def cc_graphs(draw):
    """Graphs on 0..12 nodes with any edges (so empty, one- and two-node
    graphs and isolated nodes), mixed with graphs of the three generator
    families, in any order."""
    graphs = []
    for n in draw(st.lists(st.integers(0, 12), max_size=5)):
        ends = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n)) if n else []
        graphs.append(build_graph(n, edges))
    graphs += random_mixed_graphs(draw(st.integers(0, 3)), draw(st.integers(0, 2**32)),
                                  max_n=20)
    return draw(st.permutations(graphs))


@settings(max_examples=200, deadline=None)
@given(graphs=cc_graphs())
@example(graphs=[build_graph(0, []), build_graph(1, []), build_graph(2, []),
                 build_graph(2, [(0, 1)])])
@example(graphs=[DEG5_ON_EDGE, K3, STAR, PAW])
# mean 3 / 12 = 0.25 exactly, the lower edge of graph bin 5
@example(graphs=[build_graph(12, [(0, 1), (1, 2), (0, 2)])])
def test_cc_labels_equal_direct_oracle(graphs):
    node_task, graph_task = make_node_cc_task(graphs), make_graph_cc_task(graphs)
    assert len(node_task.items) == len(graph_task.items) == len(graphs)
    for g, node_item, graph_item in zip(graphs, node_task.items, graph_task.items):
        cc = [clustering_direct(g, v) for v in range(g.num_nodes)]
        assert node_item.graph is g and graph_item.graph is g
        assert node_item.node_labels.dtype == np.int64
        assert node_item.node_labels.tolist() == [bin_index(c, NODE_CC_BINS) for c in cc]
        mean = sum(cc) / g.num_nodes if g.num_nodes else 0.0
        assert type(graph_item.graph_label) is int
        assert graph_item.graph_label == bin_index(mean, GRAPH_CC_BINS)


class TestSpdTask:
    def test_adjacent_pair_label_zero(self):
        task = make_spd_task([K3], pairs_per_graph=3, seed=0)
        assert all(c == 0 for _, _, c in task.items[0].pairs)

    def test_path_endpoints_distance_five(self):
        p6 = build_graph(6, [(i, i + 1) for i in range(5)])
        task = make_spd_task([p6], pairs_per_graph=15, seed=0)
        labels = {(u, v): c for u, v, c in task.items[0].pairs}
        assert labels[(0, 5)] == 4

    def test_stratified_balance(self):
        graphs = gen_dataset(GeneratorSpec("small_world", 40, 4, 0.1), 16, 3)
        task = make_spd_task(graphs, pairs_per_graph=20, seed=7)
        hist = collections.Counter()
        for item in task.items:
            hist.update(c for _, _, c in item.pairs)
        assert max(hist.values()) / min(hist.values()) <= 3

    def test_deterministic(self):
        graphs = tiny_dataset()
        a = make_spd_task(graphs, 10, seed=3)
        b = make_spd_task(graphs, 10, seed=3)
        assert all(x.pairs == y.pairs for x, y in zip(a.items, b.items))


@st.composite
def spd_cases(draw):
    """Graphs with n in 0..9, any edges (so disconnected parts and isolated
    nodes), pairs_per_graph from 1 to past the pair count, and any seed."""
    graphs = []
    for n in draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)):
        ends = st.integers(0, max(n - 1, 0))
        edges = draw(st.lists(st.tuples(ends, ends), max_size=2 * n)) if n else []
        graphs.append(build_graph(n, edges))
    most = max(g.num_nodes * (g.num_nodes - 1) // 2 for g in graphs)
    return (graphs, draw(st.integers(1, most + 6)),
            draw(st.integers(-2**63, 2**63 - 1)))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=spd_cases())
@example(case=([build_graph(0, []), build_graph(1, []), build_graph(2, [])], 1, 0))
@example(case=([build_graph(2, [(0, 1)])], 4, -1))
@example(case=([build_graph(7, [(0, 1), (2, 3), (3, 4)])], 40, 2**63 - 1))
def test_spd_task_equals_sequential_sampler(caplog, case):
    graphs, pairs_per_graph, seed = case
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="idgnn"):
        task = make_spd_task(graphs, pairs_per_graph, seed)
    pairs, warnings = spd_pairs_sequential(graphs, pairs_per_graph, seed)
    assert [item.pairs for item in task.items] == pairs
    assert task.skipped == warnings and not caplog.records  # the caller logs them



@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=spd_cases(), per_block=st.sampled_from([None, 1, 2, 3]))
def test_spd_task_equals_per_graph(caplog, case, per_block):
    # one search over all graphs, split into blocks of 1-3 sources or not,
    # gives the pairs and warnings of one search per graph
    graphs, pairs_per_graph, seed = case
    width = max(g.num_nodes for g in graphs)
    caplog.clear()
    with pytest.MonkeyPatch.context() as mp, \
            caplog.at_level(logging.WARNING, logger="idgnn"):
        if per_block is not None:
            mp.setattr(graph, "_BFS_BLOCK_CELLS", per_block * width)
        task = make_spd_task(graphs, pairs_per_graph, seed)
    pairs, warnings = spd_task_per_graph(graphs, pairs_per_graph, seed)
    assert [item.pairs for item in task.items] == pairs
    assert task.skipped == warnings and not caplog.records


@pytest.mark.parametrize("seed", [0, 1, 17])
@pytest.mark.parametrize("pairs_per_graph", [1, 3, 7, 20, 50, 1000])
def test_spd_task_equals_per_graph_on_generated_graphs(caplog, pairs_per_graph, seed):
    # small-world and scale-free graphs of 40 nodes; scale-free ones lack
    # some classes, and 1000 pairs take every pair of every graph
    graphs = (gen_dataset(GeneratorSpec("small_world", 40, 4, 0.1), 4, seed)
              + gen_dataset(GeneratorSpec("scale_free", 40, 2, 0.5), 4, seed))
    with caplog.at_level(logging.WARNING, logger="idgnn"):
        task = make_spd_task(graphs, pairs_per_graph, seed)
    pairs, warnings = spd_task_per_graph(graphs, pairs_per_graph, seed)
    assert [item.pairs for item in task.items] == pairs
    assert task.skipped == warnings and not caplog.records


class TestSplit:
    def test_80_20(self):
        task = make_node_cc_task(tiny_dataset(10))
        ts = split(task, 0.8, seed=0)
        assert len(ts.train) == 8 and len(ts.val) == 2

    def test_same_seed_identical(self):
        task = make_node_cc_task(tiny_dataset(10))
        a = split(task, 0.8, seed=5)
        b = split(task, 0.8, seed=5)
        assert [id(i.graph) for i in a.train] == [id(i.graph) for i in b.train]

    def test_no_leakage(self):
        task = make_node_cc_task(tiny_dataset(10))
        ts = split(task, 0.7, seed=2)
        train_ids = {id(i.graph) for i in ts.train}
        assert all(id(i.graph) not in train_ids for i in ts.val)

    def test_full_fraction_rejected(self):
        task = make_node_cc_task(tiny_dataset(5))
        with pytest.raises(InputError):
            split(task, 1.0, seed=0)


def model_for(task_kind, variant="plain", **kw):
    defaults = dict(
        flavor="sage", variant=variant, num_layers=2, hidden_dim=8,
        input_dim=11 if variant == "id_fast" else 1,
        output_dim=5 if task_kind == "edge_spd" else 10, fast_k=10, seed=0,
    )
    defaults.update(kw)
    return init_model(ModelConfig(**defaults))


class TestTrain:
    def test_zero_epochs(self):
        task = make_node_cc_task(tiny_dataset(6))
        ts = split(task, 0.5, seed=1)
        m = model_for("node_cc")
        report = train(m, ts, epochs=0)
        assert report.train_losses == []
        assert report.final_val_accuracy == evaluate(m, ts.spec, ts.val)

    def test_deterministic_reports(self):
        task = make_node_cc_task(tiny_dataset(6))
        ts = split(task, 0.5, seed=1)
        reports = []
        for _ in range(2):
            m = model_for("node_cc")
            reports.append(train(m, ts, epochs=5).to_obj())
        assert reports[0] == reports[1]

    def test_loss_decreases_id_fast(self):
        task = make_node_cc_task(tiny_dataset(8))
        ts = split(task, 0.75, seed=0)
        m = model_for("node_cc", variant="id_fast")
        report = train(m, ts, epochs=30)
        assert report.train_losses[-1] < report.train_losses[0]

    def test_non_finite_parameters_never_returned(self):
        task = make_node_cc_task(tiny_dataset(6))
        ts = split(task, 0.5, seed=1)
        m = model_for("node_cc")
        m.params["head.bias"][0] = np.inf
        with pytest.raises(NumericError):
            train(m, ts, epochs=0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -0.01])
    def test_bad_learning_rate(self, lr):
        task = make_node_cc_task(tiny_dataset(6))
        ts = split(task, 0.5, seed=1)
        with pytest.raises(InputError):
            train(model_for("node_cc"), ts, epochs=1, lr=lr)

    def test_output_dim_mismatch(self):
        task = make_node_cc_task(tiny_dataset(6))
        ts = split(task, 0.5, seed=1)
        m = model_for("node_cc", output_dim=3)
        with pytest.raises(InputError):
            train(m, ts, epochs=1)

    def test_graph_task_trains(self):
        task = make_graph_cc_task(tiny_dataset(8))
        ts = split(task, 0.75, seed=0)
        m = model_for("graph_cc", variant="id_fast")
        report = train(m, ts, epochs=10)
        assert np.isfinite(report.train_losses).all()

    def test_edge_task_wirings(self):
        graphs = tiny_dataset(6)
        task = make_spd_task(graphs, 6, seed=0)
        ts = split(task, 0.5, seed=1)
        m_plain = model_for("edge_spd", variant="plain")
        rep_plain = train(m_plain, ts, epochs=3)
        assert rep_plain.wiring == "pair_concat"
        m_full = model_for("edge_spd", variant="id_full")
        rep_full = train(m_full, ts, epochs=3)
        assert rep_full.wiring == "conditional"
        assert task_wiring(ts.spec, m_full) == "conditional"


class TestEvaluate:
    def test_accuracy_range_and_ties(self):
        task = make_node_cc_task(tiny_dataset(6))
        m = model_for("node_cc")
        for arr in m.params.values():
            arr[...] = 0.0
        # constant equal logits: argmax picks class 0 for every node
        acc = evaluate(m, task.spec, task.items)
        freq0 = np.mean(np.concatenate([i.node_labels for i in task.items]) == 0)
        assert acc == pytest.approx(freq0)

    def test_empty_split_rejected(self):
        task = make_node_cc_task(tiny_dataset(4))
        m = model_for("node_cc")
        with pytest.raises(InputError):
            evaluate(m, task.spec, [])


@pytest.mark.parametrize("kind, variant", [
    ("node_cc", "plain"), ("node_cc", "id_full"), ("graph_cc", "id_fast"),
    ("graph_cc", "id_full"), ("edge_spd", "plain"), ("edge_spd", "id_full"),
])
def test_batched_task_gradients_match_finite_differences(kind, variant):
    """The one forward and one backward of a prepared split, through every
    head wiring, agree with central differences of the split's loss."""
    graphs = tiny_dataset(3)
    task = {"node_cc": make_node_cc_task, "graph_cc": make_graph_cc_task,
            "edge_spd": lambda gs: make_spd_task(gs, 5, seed=1)}[kind](graphs)
    m = model_for(kind, variant, flavor="gin", num_layers=2, hidden_dim=4)
    randomize(m, seed=3)
    p = _prepare(m, task.spec, task.items)

    def loss():
        return loss_xent(_forward(m, p, record=False)[0], p.labels)[0]

    logits, cache = _forward(m, p, record=True)
    _, G_logits = loss_xent(logits, p.labels)
    grads = zero_grads(m)
    _backward(m, p, cache, G_logits, grads)
    rng = np.random.default_rng(0)
    h = 1e-6
    for name, arr in m.params.items():
        flat = arr.reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss()
            flat[idx] = orig - h
            down = loss()
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            assert fd == pytest.approx(grads[name].reshape(-1)[idx], rel=1e-4, abs=1e-8), name


@pytest.mark.parametrize("kind", ["node_cc", "graph_cc", "edge_spd"])
@pytest.mark.parametrize("variant", ["plain", "id_full"])
def test_predictions_match_single_item_wiring(kind, variant):
    """Batched logits equal the wiring composed from single-item calls."""
    graphs = tiny_dataset(3)
    task = {"node_cc": make_node_cc_task, "graph_cc": make_graph_cc_task,
            "edge_spd": lambda gs: make_spd_task(gs, 5, seed=1)}[kind](graphs)
    m = model_for(kind, variant, aggregation="sum")  # degree-aware on constant inputs
    randomize(m, seed=4)
    logits, _ = predictions(m, task.spec, task.items)
    expected = []
    for item in task.items:
        g = item.graph
        x = input_features(m.config, [g])[0]
        if variant == "plain":
            H = forward_plain(m, g, np.ones((g.num_nodes, 1)))
        else:
            H = np.stack([forward_id_full(m, g, v, v, x) for v in range(g.num_nodes)])
        if kind == "node_cc":
            expected.extend(head_logits(m, H))
        elif kind == "graph_cc":
            expected.append(head_logits(m, H.sum(axis=0)))
        elif variant == "plain":
            expected.extend(edge_pair_score(m, H[u], H[v]) for u, v, _ in item.pairs)
        else:
            expected.extend(head_logits(m, forward_id_full(m, g, u, v, x))
                            for u, v, _ in item.pairs)
    np.testing.assert_allclose(logits, np.array(expected), rtol=0, atol=1e-12)
