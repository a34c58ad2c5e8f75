import pytest

from idgnn.errors import InputError
from idgnn.expressiveness import (
    build_nonisomorphic_pool,
    certify_gnn_blindness,
    run_regular_experiment,
)
from idgnn.generators import gen_d_regular
from idgnn.graph import build_graph
from idgnn.nn import ModelConfig, init_model, make_walk_count_model
from idgnn.wl import are_isomorphic
from gradcheck import randomize


class TestPool:
    def test_pairwise_nonisomorphic(self):
        pool, regen = build_nonisomorphic_pool(12, 3, 8, seed=3)
        assert len(pool) == 8
        assert regen >= 0
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                assert not are_isomorphic(pool[i], pool[j])

    def test_all_regular(self):
        pool, _ = build_nonisomorphic_pool(16, 4, 6, seed=1)
        assert all(set(g.degrees()) == {4} for g in pool)


class TestExperiment:
    def test_single_graph_trivial(self):
        report = run_regular_experiment(4, 3, 1, [3], seed=0)
        assert report.fractions[3] == 1.0

    def test_small_run_properties(self):
        report = run_regular_experiment(16, 3, 12, [2, 3, 4, 6], seed=5)
        ks = sorted(report.fractions)
        vals = [report.fractions[k] for k in ks]
        assert vals == sorted(vals)  # monotone nondecreasing in K
        assert report.wl_all_equal
        assert report.wl_distinguished_fraction == 0.0
        assert 0.0 < report.fractions[6] <= 1.0

    def test_deterministic(self):
        a = run_regular_experiment(16, 3, 6, [3, 4], seed=9)
        b = run_regular_experiment(16, 3, 6, [3, 4], seed=9)
        assert a.to_obj() == b.to_obj()

    def test_csv_layout(self):
        report = run_regular_experiment(12, 3, 4, [3, 4], seed=2)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "n,d,graph_count,wl_baseline,K=3,K=4"
        assert lines[1].startswith("12,3,4,")

    def test_bad_k_list(self):
        with pytest.raises(InputError):
            run_regular_experiment(12, 3, 4, [], seed=0)


class TestBlindness:
    @pytest.mark.parametrize("flavor", ["gcn", "sage", "gin"])
    def test_plain_models_blind_on_regular(self, flavor):
        g = gen_d_regular(16, 4, 8)
        for seed in (0, 1):
            cfg = ModelConfig(flavor=flavor, variant="plain", num_layers=3,
                              hidden_dim=6, input_dim=2, output_dim=3, seed=seed)
            m = init_model(cfg)
            randomize(m, seed=seed + 40)
            assert certify_gnn_blindness(g, m)

    def test_id_full_not_blind(self):
        # a 4-regular graph whose nodes have differing closed-walk profiles
        from idgnn.counts import walk_count_features

        for seed in range(10):
            g = gen_d_regular(16, 4, seed)
            rows = {tuple(r) for r in walk_count_features(g, 6).tolist()}
            if len(rows) > 1:
                break
        assert len(rows) > 1
        m = make_walk_count_model(6)
        assert not certify_gnn_blindness(g, m)

    def test_non_regular_rejected(self):
        p3 = build_graph(3, [(0, 1), (1, 2)])
        m = init_model(ModelConfig(flavor="sage", variant="plain", num_layers=2,
                                   hidden_dim=4, input_dim=1, output_dim=2, seed=0))
        with pytest.raises(InputError):
            certify_gnn_blindness(p3, m)
