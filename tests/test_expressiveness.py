import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn import expressiveness
from idgnn.counts import graph_signature, walk_count_features_many
from idgnn.errors import CapabilityError, InputError
from idgnn.expressiveness import (
    PREFILTER_K,
    SignatureIndex,
    build_nonisomorphic_pool,
    certify_gnn_blindness,
    run_regular_experiment,
)
from idgnn.generators import gen_d_regular, gen_d_regular_many
from idgnn.graph import build_graph, relabel_graph
from idgnn.nn import ModelConfig, init_model, make_walk_count_model
from idgnn.wl import are_isomorphic, iso_state, isomorphic_states
from gradcheck import randomize
from oracles import edge_list, isomorphic_brute, nonisomorphic_pool_sequential


def pool_outcome(fn, *args):
    """(pool edges, regen) or the CapabilityError message of one pool build."""
    try:
        pool, regen = fn(*args)
    except CapabilityError as exc:
        return str(exc)
    return [edge_list(g) for g in pool], regen


def chunked_draws(monkeypatch, *args):
    """build_nonisomorphic_pool's outcome and the seeds it drew candidates from."""
    seeds = []

    def recording(n, d, chunk):
        seeds.extend(chunk)
        return gen_d_regular_many(n, d, chunk)

    with monkeypatch.context() as mp:
        mp.setattr(expressiveness, "gen_d_regular_many", recording)
        return pool_outcome(build_nonisomorphic_pool, *args), seeds


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

    @settings(max_examples=40, deadline=None)
    @given(nd=st.sampled_from([(n, d) for n in range(3, 7) for d in range(1, n)
                               if n * d % 2 == 0]),
           graph_count=st.integers(1, 4), seed=st.integers(0, 2**63 - 1))
    def test_chunks_equal_sequential_loop(self, nd, graph_count, seed):
        # small pools exhaust their classes, so both outcomes occur
        n, d = nd
        with pytest.MonkeyPatch.context() as mp:
            got, seeds = chunked_draws(mp, n, d, graph_count, seed)
        want = pool_outcome(nonisomorphic_pool_sequential, n, d, graph_count, seed)
        assert got == want
        draws = graph_count * 50 if isinstance(want, str) else graph_count + want[1]
        assert seeds == [expressiveness.child_seed(seed, i) for i in range(draws)]

    def test_regenerating_pool_equals_sequential_loop(self, monkeypatch):
        got, seeds = chunked_draws(monkeypatch, 8, 3, 5, 0)
        assert got == pool_outcome(nonisomorphic_pool_sequential, 8, 3, 5, 0)
        assert got[1] == 7 and len(seeds) == 12

    def test_budget_error_at_same_attempt(self, monkeypatch):
        # K5 is the only 4-regular graph on 5 nodes
        got, seeds = chunked_draws(monkeypatch, 5, 4, 5, 0)
        assert got == pool_outcome(nonisomorphic_pool_sequential, 5, 4, 5, 0)
        assert "within 250 attempts" in got and len(seeds) == 250


class TestSignatureIndex:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_batch_add_equals_sequential_adds(self, data):
        # relabeled duplicates of a few bases of mixed sizes, down to the
        # empty graph, added at once, one by one and in chunks
        bases = []
        for _ in range(data.draw(st.integers(1, 4))):
            n = data.draw(st.integers(0, 7))
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = data.draw(st.sets(st.sampled_from(pairs))) if pairs else []
            bases.append(build_graph(n, edges))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        graphs = []
        for _ in range(data.draw(st.integers(0, 12))):
            g = bases[int(rng.integers(len(bases)))]
            graphs.append(relabel_graph(g, rng.permutation(g.num_nodes).tolist()))
        sequential = SignatureIndex()
        want = [sequential.add_many([g])[0] for g in graphs]
        batch = SignatureIndex()
        assert batch.add_many(graphs) == want
        cuts = sorted(data.draw(st.lists(st.integers(0, len(graphs)), max_size=3)))
        chunked = SignatureIndex()
        got = []
        for lo, hi in zip([0] + cuts, cuts + [len(graphs)]):
            got += chunked.add_many(graphs[lo:hi])
        assert got == want
        for index in (batch, chunked):
            assert {sig: [edge_list(g) for g in bucket] for sig, bucket in index.buckets.items()} \
                == {sig: [edge_list(g) for g in bucket]
                    for sig, bucket in sequential.buckets.items()}

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_keep_flags_equal_brute_force_dedupe(self, data):
        # a few bases on at most 7 nodes, each followed by relabeled copies,
        # some with one edge moved, all shuffled together
        graphs = []
        for _ in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(1, 7))
            slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = data.draw(st.sets(st.sampled_from(slots))) if slots else set()
            graphs.append(build_graph(n, edges))
            for _ in range(data.draw(st.integers(0, 3))):
                copy = edges
                if data.draw(st.booleans()) and edges and len(edges) < len(slots):
                    copy = (edges - {data.draw(st.sampled_from(sorted(edges)))}) | {
                        data.draw(st.sampled_from(sorted(set(slots) - edges)))}
                graphs.append(relabel_graph(build_graph(n, copy),
                                            data.draw(st.permutations(range(n)))))
        graphs = [graphs[i] for i in data.draw(st.permutations(range(len(graphs))))]
        kept, want = [], []
        for g in graphs:
            want.append(not any(isomorphic_brute(g, h) for h in kept))
            if want[-1]:
                kept.append(g)
        assert SignatureIndex().add_many(graphs) == want
        walks = walk_count_features_many(graphs, PREFILTER_K)
        states = [iso_state(g, c) for g, c in zip(graphs, walks)]
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert isomorphic_states(states[i], states[j]) \
                    == are_isomorphic(graphs[i], graphs[j])


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

    @pytest.mark.parametrize("k_list", [[2, 5, PREFILTER_K], [3, 8, PREFILTER_K + 1], [4, 14]])
    def test_fractions_at_and_above_prefilter_k(self, monkeypatch, k_list):
        # up to PREFILTER_K the fractions read the counts that the pool's
        # signature index computed; above it the pool's counts are computed
        # once more, at the largest k
        lengths = []

        def recording(graphs, k):
            lengths.append(k)
            return walk_count_features_many(graphs, k)

        monkeypatch.setattr(expressiveness, "walk_count_features_many", recording)
        report = run_regular_experiment(12, 3, 10, k_list, seed=4)
        extra = [k_list[-1]] if k_list[-1] > PREFILTER_K else []
        assert lengths == [PREFILTER_K] * (len(lengths) - len(extra)) + extra
        pool, _ = build_nonisomorphic_pool(12, 3, 10, seed=4)
        for k in k_list:
            assert report.fractions[k] == len({graph_signature(g, k) for g in pool}) / 10

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
