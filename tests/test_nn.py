import errno
import os
import platform
import types
import zlib

import numpy as np
import pytest

from idgnn.counts import identity_walk_counts, walk_count_features
from idgnn.errors import InputError
from idgnn.generators import GeneratorSpec, gen_d_regular, gen_dataset, gen_small_world
from idgnn.graph import build_graph, extract_ego, relabel_graph
from idgnn import nn
from idgnn.nn import (
    ModelConfig,
    backward_layers,
    edge_pair_score,
    forward_batch,
    forward_id_full,
    forward_plain,
    head_logits,
    init_model,
    input_features,
    load_model,
    make_batch,
    make_walk_count_model,
    save_model,
    zero_grads,
)
from idgnn.tasks import _forward, _prepare, make_graph_cc_task, make_node_cc_task, split, train
from gradcheck import (
    assert_shares_rows,
    copy_params,
    fd_check,
    model_loss,
    randomize,
    shared_rows_case,
    tie_msg1,
)

P3 = build_graph(3, [(0, 1), (1, 2)])
K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])


def small_config(flavor="sage", variant="plain", **kw):
    base = dict(flavor=flavor, variant=variant, num_layers=2, hidden_dim=5,
                input_dim=3, output_dim=4, seed=7)
    base.update(kw)
    return ModelConfig(**base)


class TestInit:
    def test_deterministic(self):
        a = init_model(small_config())
        b = init_model(small_config())
        for (n1, p1), (n2, p2) in zip(a.params.items(), b.params.items()):
            assert n1 == n2
            assert np.array_equal(p1, p2)

    def test_plain_has_no_msg1(self):
        # one message function: every layer has msg0 and no msg1 entry
        m = init_model(small_config(variant="plain"))
        for i in range(m.config.num_layers):
            assert f"layers.{i}.msg0_weight" in m.params
            assert f"layers.{i}.msg0_bias" in m.params
        assert not any("msg1" in n for n in m.params)

    def test_id_full_has_independent_msg1(self):
        m = init_model(small_config(variant="id_full"))
        p = m.params
        assert not np.shares_memory(p["layers.0.msg1_weight"], p["layers.0.msg0_weight"])
        assert any("msg1" in n for n in p)

    def test_zero_hidden_rejected(self):
        with pytest.raises(InputError):
            small_config(hidden_dim=0)

    def test_gin_requires_sum(self):
        with pytest.raises(InputError):
            small_config(flavor="gin", aggregation="max")


class TestInputFeatures:
    """Model inputs: the node features or all-ones columns, then, for
    id_fast only, log(1 + count) closed-walk columns."""

    GRAPHS = [K3, build_graph(3, [(0, 1)], node_features=[[2.0], [3.0], [5.0]]),
              build_graph(0, [])]

    def test_id_fast_appends_log_counts(self):
        cfg = small_config(variant="id_fast", input_dim=4, fast_k=3)
        xs = input_features(cfg, self.GRAPHS)
        for g, x in zip(self.GRAPHS, xs):
            base = np.ones((g.num_nodes, 1)) if g.node_features is None else g.node_features
            want = np.concatenate([base, np.log1p(walk_count_features(g, 3).astype(float))],
                                  axis=1)
            assert x.tobytes() == want.tobytes() and x.shape == (g.num_nodes, 4)

    def test_plain_keeps_the_base(self):
        xs = input_features(small_config(input_dim=1), self.GRAPHS)
        assert [x.tolist() for x in xs] == [[[1.0]] * 3, [[2.0], [3.0], [5.0]], []]

    def test_width_mismatch(self):
        with pytest.raises(InputError):
            input_features(small_config(variant="id_fast", input_dim=4, fast_k=2),
                           self.GRAPHS[1:2])


class TestForwardPlain:
    @pytest.mark.parametrize("flavor", ["gcn", "sage", "gin"])
    def test_regular_graph_constant_features_uniform_rows(self, flavor):
        g = gen_d_regular(12, 3, 3)
        m = init_model(small_config(flavor=flavor, input_dim=2))
        H = forward_plain(m, g, np.ones((12, 2)))
        assert np.max(np.abs(H - H[0])) <= 1e-9

    @pytest.mark.parametrize("flavor", ["gcn", "sage", "gin"])
    def test_zero_params_zero_embeddings(self, flavor):
        m = init_model(small_config(flavor=flavor))
        for arr in m.params.values():
            arr[...] = 0.0
        H = forward_plain(m, K3, np.ones((3, 3)))
        assert not H.any()

    def test_one_layer_sum_hand_evaluated(self):
        # identity message map, sum aggregation, update selecting the
        # aggregate: center of P3 must hold the sum of endpoint features
        cfg = ModelConfig(flavor="sage", variant="plain", num_layers=1,
                          hidden_dim=3, input_dim=3, output_dim=2,
                          aggregation="sum", seed=0)
        m = init_model(cfg)
        p = m.params
        p["layers.0.msg0_weight"][...] = np.eye(3)
        p["layers.0.msg0_bias"][...] = 0.0
        p["layers.0.update_weight"][...] = np.concatenate([np.eye(3), np.zeros((3, 3))], axis=1)
        p["layers.0.update_bias"][...] = 0.0
        x = np.eye(3)  # one-hot per node
        H = forward_plain(m, P3, x)
        assert H[1].tolist() == [1.0, 0.0, 1.0]

    @pytest.mark.parametrize("flavor", ["gcn", "sage", "gin"])
    def test_permutation_equivariance(self, flavor):
        rng = np.random.default_rng(1)
        g = gen_small_world(14, 4, 0.4, 2)
        x = rng.normal(size=(14, 3))
        m = init_model(small_config(flavor=flavor))
        randomize(m, seed=5)
        perm = rng.permutation(14).tolist()
        H = forward_plain(m, g, x)
        x_p = np.empty_like(x)
        for v in range(14):
            x_p[perm[v]] = x[v]
        H_p = forward_plain(m, relabel_graph(g, perm), x_p)
        for v in range(14):
            assert np.max(np.abs(H_p[perm[v]] - H[v])) <= 1e-9

    def test_dimension_mismatch(self):
        m = init_model(small_config())
        with pytest.raises(InputError):
            forward_plain(m, K3, np.ones((3, 7)))

    def test_id_full_rejected(self):
        m = init_model(small_config(variant="id_full"))
        with pytest.raises(InputError):
            forward_plain(m, K3, np.ones((3, 3)))


class TestForwardIdFull:
    @pytest.mark.parametrize("flavor", ["gcn", "sage", "gin"])
    def test_reduction_msg1_equals_msg0(self, flavor):
        g = gen_small_world(16, 4, 0.3, 6)
        cfg = small_config(flavor=flavor, variant="id_full")
        m = init_model(cfg)
        randomize(m, seed=11)
        tie_msg1(m)
        plain = init_model(small_config(flavor=flavor, variant="plain"))
        copy_params(plain, m)
        rng = np.random.default_rng(3)
        for center in (0, 5, 9):
            ego = extract_ego(g, center, cfg.num_layers)
            x = rng.normal(size=(g.num_nodes, cfg.input_dim))
            h_full = forward_id_full(m, g, center, center, x)
            h_plain = forward_plain(plain, ego.subgraph,
                                    x[list(ego.to_parent)])[ego.center_local_index]
            assert np.max(np.abs(h_full - h_plain)) <= 1e-12

    def test_mask_all_false_equals_plain(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        cfg = small_config(variant="id_full")
        m = init_model(cfg)
        randomize(m, seed=2)
        ego = extract_ego(g, 0, 2, identity_at=3)  # outside ball
        assert not any(ego.identity_mask)
        h = forward_id_full(m, g, 0, 3, np.ones((4, 3)))
        plain = init_model(small_config(variant="plain"))
        copy_params(plain, m)
        h_plain = forward_plain(plain, ego.subgraph, np.ones((3, 3)))[0]
        assert np.allclose(h, h_plain, atol=0, rtol=0)

    def test_count_model_bridge_triangle(self):
        m = make_walk_count_model(3)
        h = forward_id_full(m, K3, 0, 0, np.ones((3, 3)))
        assert h.tolist() == [0.0, 2.0, 2.0]

    def test_count_model_bridge_random_graphs(self):
        from oracles import random_mixed_graphs

        for g in random_mixed_graphs(5, seed=31, max_n=20):
            for k in (2, 4, 5):
                m = make_walk_count_model(k)
                feats = walk_count_features(g, k)
                for v in range(0, g.num_nodes, 4):
                    h = forward_id_full(m, g, v, v, np.ones((g.num_nodes, k)))
                    assert h.tolist() == feats[v].astype(float).tolist()
                    cm = identity_walk_counts(extract_ego(g, v, k), k)
                    assert h.tolist() == cm.counts[cm.identity_node].astype(float).tolist()


class TestConditional:
    def test_self_conditioning_is_default_embedding(self):
        g = gen_small_world(12, 4, 0.2, 8)
        m = init_model(small_config(variant="id_full", input_dim=1))
        x = np.ones((g.num_nodes, 1))
        h1 = forward_id_full(m, g, 4, 4, x)
        h2 = forward_batch(m, make_batch(m, [g], [x]))[4]
        assert np.array_equal(h1, h2)

    def test_distance_sensitivity_with_count_weights(self):
        c8 = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
        m = make_walk_count_model(3)
        h_by_dist = [forward_id_full(m, c8, 0, v, np.ones((8, 3))) for v in (1, 2, 3)]
        assert h_by_dist[0].tolist() == [1.0, 0.0, 3.0]
        assert h_by_dist[1].tolist() == [0.0, 1.0, 0.0]
        assert h_by_dist[2].tolist() == [0.0, 0.0, 1.0]

    def test_outside_ball_reduces_to_plain(self):
        p6 = build_graph(6, [(i, i + 1) for i in range(5)])
        m = init_model(small_config(variant="id_full", num_layers=2, input_dim=1))
        randomize(m, seed=4)
        x = np.ones((6, 1))
        h = forward_id_full(m, p6, 0, 5, x)  # dist 5 > 2 layers
        ego = extract_ego(p6, 0, 2, identity_at=5)
        assert not any(ego.identity_mask)
        for i in range(m.config.num_layers):  # msg1 unused when mask is empty
            m.params[f"layers.{i}.msg1_weight"][...] = 12345.0
        h2 = forward_id_full(m, p6, 0, 5, x)
        assert np.array_equal(h, h2)


def graph_readout(graphs, seed=0):
    """The graph-cc task's sum pooling of node embeddings (tasks._forward),
    one row per graph, and the batch's node embeddings."""
    m = init_model(small_config(output_dim=10))
    randomize(m, seed=seed)
    task = make_graph_cc_task(graphs)
    p = _prepare(m, task.spec, task.items)
    return _forward(m, p, record=False)[1]["Z"], forward_batch(m, p.batch)


class TestReadoutAndPairs:
    def test_single_node(self):
        Z, H = graph_readout([build_graph(1, [], [[1.0, 2.0, 3.0]])])
        assert Z[0].tolist() == H[0].tolist()

    def test_two_equal_rows(self):
        Z, H = graph_readout([build_graph(2, [(0, 1)])])
        assert H[0].tolist() == H[1].tolist()
        assert Z[0].tolist() == (2.0 * H[0]).tolist()

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        g = build_graph(9, [(i, (i * 4 + 1) % 9) for i in range(9)],
                        rng.normal(size=(9, 3)))
        Z, _ = graph_readout([g, relabel_graph(g, rng.permutation(9))], seed=2)
        assert np.allclose(Z[0], Z[1], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            graph_readout([K3, build_graph(0, [])])

    def test_pair_score_zero_head_gives_bias(self):
        m = init_model(small_config())
        for name in ("w1", "b1", "w2"):
            m.params[f"pair.{name}"][...] = 0.0
        m.params["pair.b2"][...] = np.arange(4.0)
        out = edge_pair_score(m, np.zeros(5), np.zeros(5))
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_pair_score_order_matters(self):
        m = init_model(small_config(seed=3))
        randomize(m, seed=3)
        a, b = np.arange(5.0), np.arange(5.0)[::-1].copy()
        assert not np.allclose(
            edge_pair_score(m, a, b), edge_pair_score(m, b, a)
        )

    def test_pair_head_identity_slice(self):
        cfg = small_config(hidden_dim=4, output_dim=4)
        m = init_model(cfg)
        m.params["pair.w1"][...] = np.concatenate([np.eye(4), np.zeros((4, 4))], axis=1)
        m.params["pair.b1"][...] = 0.0
        m.params["pair.w2"][...] = np.eye(4)
        m.params["pair.b2"][...] = 0.0
        h_u = np.array([0.5, 1.0, 0.0, 2.0])  # nonnegative: ReLU transparent
        out = edge_pair_score(m, h_u, np.ones(4))
        assert out.tolist() == h_u.tolist()

    def test_pair_dim_mismatch(self):
        m = init_model(small_config())
        with pytest.raises(InputError):
            edge_pair_score(m, np.zeros(5), np.zeros(4))


class TestGradients:
    @pytest.mark.parametrize("flavor", ["gcn", "sage", "gin"])
    @pytest.mark.parametrize("variant", ["plain", "id_full", "id_fast"])
    def test_fd_check(self, flavor, variant):
        # crc32, not hash(): string hashing is salted per process
        rng = np.random.default_rng(zlib.crc32(f"{flavor}/{variant}".encode()))
        g = gen_small_world(8, 2, 0.4, 3)
        cfg = ModelConfig(flavor=flavor, variant=variant, num_layers=2,
                          hidden_dim=3, input_dim=2, output_dim=3,
                          fast_k=2, seed=1)
        m = init_model(cfg)
        randomize(m, seed=17)
        x = rng.normal(size=(8, 2))
        labels = rng.integers(0, 3, size=8)
        checked, excluded, worst, failures = fd_check(m, g, x, labels)
        assert not failures, failures[:3]
        assert checked > 0
        assert worst < 1e-4

    @pytest.mark.parametrize("flavor,aggregation", [("gcn", "mean"), ("sage", "sum"),
                                                    ("sage", "mean"), ("sage", "max"),
                                                    ("gin", "sum")])
    def test_fd_check_shared_rows(self, flavor, aggregation):
        m, g, x, labels, anchors = shared_rows_case(flavor, aggregation)
        assert_shares_rows(m, g, x, anchors)
        checked, excluded, worst, failures = fd_check(m, g, x, labels, anchors=anchors)
        assert not failures, failures[:3]
        assert checked > 0
        assert worst < 1e-4

    def test_zero_upstream_zero_grads(self):
        m = init_model(small_config())
        tape = []
        forward_batch(m, make_batch(m, [K3], [np.ones((3, 3))]), tape)
        grads, _ = backward_layers(m, tape, np.zeros((3, 5)))
        assert all(not g.any() for g in grads.values())

    def test_shared_message_gradients_match_tied_hetero(self):
        # plain model and id_full model with tied msg weights must see the
        # same total message gradient (split across msg0+msg1 when untied)
        g = gen_small_world(10, 4, 0.3, 5)
        cfg_f = small_config(variant="id_full", input_dim=1)
        mf = init_model(cfg_f)
        randomize(mf, seed=23)
        tie_msg1(mf)
        mp = init_model(small_config(variant="plain", input_dim=1))
        copy_params(mp, mf)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(10, 1))
        labels = rng.integers(0, 4, size=10)
        _, _, gf = model_loss(mf, g, x, labels, record=True)
        _, _, gp = model_loss(mp, g, x, labels, record=True)
        for i in range(cfg_f.num_layers):
            tied = gf[f"layers.{i}.msg0_weight"] + gf[f"layers.{i}.msg1_weight"]
            assert np.allclose(tied, gp[f"layers.{i}.msg0_weight"], atol=1e-10)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        m = init_model(small_config(variant="id_full", flavor="gin"))
        randomize(m, seed=31)
        path = str(tmp_path / "model.ckpt")
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.config == m.config
        for (n1, p1), (n2, p2) in zip(m.params.items(), loaded.params.items()):
            assert n1 == n2
            assert np.array_equal(p1, p2)

    def test_plain_roundtrip_has_no_msg1(self, tmp_path):
        m = init_model(small_config(variant="plain"))
        path = str(tmp_path / "m.ckpt")
        save_model(m, path)
        loaded = load_model(path)
        assert "layers.0.msg0_weight" in loaded.params
        assert not any("msg1" in n for n in loaded.params)

    def test_failed_save_names_the_checkpoint_path(self, tmp_path):
        # the checkpoint is written through a temp file and a rename
        m = init_model(small_config())
        missing = str(tmp_path / "missing" / "m.ckpt")
        with pytest.raises(FileNotFoundError) as err:
            save_model(m, missing)
        assert err.value.filename == missing and err.value.filename2 is None
        folder = tmp_path / "folder"
        folder.mkdir()
        with pytest.raises(IsADirectoryError) as err:
            save_model(m, str(folder))
        assert err.value.filename == str(folder)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["folder"]
        assert list(folder.iterdir()) == []

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        # a write that fails at the rename leaves the old file whole
        path = tmp_path / "m.ckpt"
        save_model(init_model(small_config(seed=1)), str(path))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError(errno.EIO, "Input/output error", src)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError) as err:
            save_model(init_model(small_config(seed=2)), str(path))
        assert err.value.errno == errno.EIO and err.value.filename == str(path)
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(InputError):
            load_model(str(path))


class TestFreedMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mallopt only")
    def test_training_epochs_take_few_page_faults(self):
        import resource

        # sage max id_fast on 32 small-world graphs of 40 nodes: each layer's
        # temporaries are 1,280 x 32 floats, above glibc's default mmap
        # threshold, so without the allocator setting every epoch maps and
        # faults them in afresh (thousands of faults per epoch)
        graphs = gen_dataset(GeneratorSpec("small_world", 40, 4, 0.3), 32, 1)
        task = split(make_node_cc_task(graphs), 0.8, 1)
        model = init_model(ModelConfig("sage", "id_fast", 3, 32, 11,
                                       task.spec.num_classes, "max"))
        train(model, task, epochs=1)
        epochs = 8
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(model, task, epochs=epochs)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 200 * epochs

    def test_sets_both_thresholds_through_mallopt(self, monkeypatch):
        calls = []
        libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
        monkeypatch.setattr(nn.ctypes, "CDLL", lambda name: libc)
        nn._keep_freed_memory()
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_does_nothing_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(nn.ctypes, "CDLL", lambda name: types.SimpleNamespace())
        nn._keep_freed_memory()
