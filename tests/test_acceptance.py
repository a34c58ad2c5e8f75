"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete. Tolerances are pinned here and nowhere else.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from idgnn.cli import main as cli_main
from idgnn.counts import clustering_from_counts, walk_count_features
from idgnn.expressiveness import certify_gnn_blindness, run_regular_experiment
from idgnn.generators import GeneratorSpec, gen_d_regular, gen_dataset
from idgnn.graph import extract_ego
from idgnn.nn import (
    ModelConfig,
    forward_batch,
    forward_id_full,
    forward_plain,
    init_model,
    make_batch,
    make_walk_count_model,
)
from idgnn.tasks import make_node_cc_task, make_spd_task, split, train
from gradcheck import (
    assert_shares_rows,
    copy_params,
    fd_check,
    randomize,
    shared_rows_case,
    tie_msg1,
)
from oracles import bfs_distances, clustering_direct, dense_power_diag, random_mixed_graphs


@contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] criterion {num:2d} FAIL - {name}")
        raise
    elapsed = time.monotonic() - start
    print(f"\n[ACCEPTANCE] criterion {num:2d} PASS - {name} ({elapsed:.1f}s)")


TABLE_SETTINGS = ((64, 4), (40, 5), (96, 6))
TABLE_SEED = 0


@pytest.fixture(scope="module")
def table_reports():
    return {
        (n, d): run_regular_experiment(n, d, 100, [3, 4, 5, 6], seed=TABLE_SEED)
        for n, d in TABLE_SETTINGS
    }


def test_criterion_1_table_reproduction(table_reports):
    with criterion(1, "d-regular differentiation fractions in Table bands"):
        start = time.monotonic()
        r64 = table_reports[(64, 4)].fractions
        assert r64[6] == 1.0
        assert r64[5] >= 0.85
        assert 0.02 <= r64[3] <= 0.35
        r40 = table_reports[(40, 5)].fractions
        assert r40[5] == 1.0 and r40[6] == 1.0
        assert r40[4] >= 0.60
        r96 = table_reports[(96, 6)].fractions
        assert r96[5] == 1.0 and r96[6] == 1.0
        assert r96[4] >= 0.70
        for rep in table_reports.values():
            ks = sorted(rep.fractions)
            vals = [rep.fractions[k] for k in ks]
            assert vals == sorted(vals)
        assert time.monotonic() - start < 120.0


def test_criterion_2_wl_baseline(table_reports):
    with criterion(2, "1-WL distinguishes nothing in any pool"):
        for rep in table_reports.values():
            assert rep.wl_all_equal
            assert rep.wl_distinguished_fraction == 0.0


def test_criterion_3_walk_count_oracle_equivalence():
    with criterion(3, "walk counts: matrix powers = kernel = loaded weights"):
        start = time.monotonic()
        graphs = random_mixed_graphs(100, seed=41, max_n=40)
        models = {k: make_walk_count_model(k) for k in range(1, 7)}
        for g in graphs:
            oracle = dense_power_diag(g, 6)
            for k in range(1, 7):
                # one batch anchors every node at itself: row v is node v's counts
                batch = make_batch(models[k], [g], [np.ones((g.num_nodes, k))])
                h = forward_batch(models[k], batch)
                assert h.tolist() == oracle[:, :k].astype(float).tolist()
            assert np.array_equal(walk_count_features(g, 6), oracle)
        assert time.monotonic() - start < 30.0


def test_criterion_4_clustering_equivalence():
    with criterion(4, "clustering from counts = direct definition, exactly"):
        start = time.monotonic()
        graphs = random_mixed_graphs(100, seed=43, max_n=40)
        checked = 0
        for g in graphs:
            feats = walk_count_features(g, 3)
            degrees = g.degrees()
            for v in range(g.num_nodes):
                if degrees[v] >= 2:
                    assert clustering_from_counts(feats[v]) == clustering_direct(g, v)
                    checked += 1
        assert checked > 1000
        assert time.monotonic() - start < 10.0


def test_criterion_5_reachability_equivalence():
    with criterion(5, "first nonzero walk-count length = BFS distance within K"):
        start = time.monotonic()
        graphs = random_mixed_graphs(50, seed=47, max_n=24)
        models = {k: make_walk_count_model(k) for k in range(1, 7)}
        for g in graphs:
            n = g.num_nodes
            pairs = [(u, v) for v in range(n) for u in range(n) if u != v]
            for k in range(1, 7):
                # anchor (u, v) counts the walks u -> v of lengths 1..k, so
                # its first nonzero column is the distance, if within k
                batch = make_batch(models[k], [g], [np.ones((n, k))], [pairs])
                h = forward_batch(models[k], batch)
                first = np.where(h.any(axis=1), (h != 0).argmax(axis=1) + 1, -1)
                dist = [bfs_distances(g, v, k) for v in range(n)]
                want = [dist[v][u] for u, v in pairs]
                assert first.tolist() == [-1 if d is None else d for d in want]
        assert time.monotonic() - start < 30.0


def test_criterion_6_failure_certificate():
    with criterion(6, "plain models blind on regular graphs; counts are not"):
        graphs = [gen_d_regular(16, 4, seed) for seed in range(20)]
        for flavor in ("gcn", "sage", "gin"):
            for model_seed in range(10):
                cfg = ModelConfig(flavor=flavor, variant="plain", num_layers=3,
                                  hidden_dim=8, input_dim=2, output_dim=4,
                                  seed=model_seed)
                m = init_model(cfg)
                randomize(m, seed=100 + model_seed)
                for g in graphs:
                    assert certify_gnn_blindness(g, m, tol=1e-9)
        sigs = {
            tuple(sorted(map(tuple, walk_count_features(g, 6).tolist())))
            for g in graphs
        }
        assert len(sigs) > 1  # at least one non-isomorphic pair separated


def test_criterion_7_gradient_correctness():
    with criterion(7, "finite-difference gradients across flavor x variant"):
        from idgnn.generators import gen_small_world

        for flavor in ("gcn", "sage", "gin"):
            for variant in ("plain", "id_full", "id_fast"):
                for seed in range(5):
                    rng = np.random.default_rng(seed * 7 + 1)
                    g = gen_small_world(8, 2, 0.4, seed)
                    cfg = ModelConfig(
                        flavor=flavor, variant=variant, num_layers=2,
                        hidden_dim=3, input_dim=2, output_dim=3, fast_k=2,
                        seed=seed,
                    )
                    m = init_model(cfg)
                    randomize(m, seed=seed + 50)
                    x = rng.normal(size=(8, 2))
                    labels = rng.integers(0, 3, size=8)
                    checked, excluded, worst, failures = fd_check(
                        m, g, x, labels, h=1e-5, rel_tol=1e-4
                    )
                    assert not failures, (flavor, variant, seed, failures[:3])
                    assert checked > 0
            # id_full batches reading whole-graph rows, some of them as the
            # own row of several ego rows
            for seed in range(5):
                m, g, x, labels, anchors = shared_rows_case(flavor, seed=seed)
                assert_shares_rows(m, g, x, anchors)
                checked, excluded, worst, failures = fd_check(
                    m, g, x, labels, h=1e-5, rel_tol=1e-4, anchors=anchors
                )
                assert not failures, (flavor, "shared rows", seed, failures[:3])
                assert checked > 0


def test_criterion_8_reduction_property():
    with criterion(8, "tied message functions reduce id_full to plain"):
        rng = np.random.default_rng(3)
        flavors = ("gcn", "sage", "gin")
        aggs = {"gcn": ["mean"], "sage": ["sum", "mean", "max"], "gin": ["sum"]}
        done = 0
        case = 0
        while done < 50:
            flavor = flavors[done % 3]
            agg = aggs[flavor][done % len(aggs[flavor])]
            layers = 1 + done % 3
            hidden = 2 + done % 4
            graphs = random_mixed_graphs(1, seed=900 + done, max_n=30)
            g = graphs[0]
            cfg_full = ModelConfig(flavor=flavor, variant="id_full",
                                   num_layers=layers, hidden_dim=hidden,
                                   input_dim=2, output_dim=2,
                                   aggregation=agg, seed=done)
            mf = init_model(cfg_full)
            randomize(mf, seed=done)
            tie_msg1(mf)
            cfg_plain = ModelConfig(flavor=flavor, variant="plain",
                                    num_layers=layers, hidden_dim=hidden,
                                    input_dim=2, output_dim=2,
                                    aggregation=agg, seed=done)
            mp = init_model(cfg_plain)
            copy_params(mp, mf)
            center = int(rng.integers(g.num_nodes))
            ego = extract_ego(g, center, layers)
            x = rng.normal(size=(ego.subgraph.num_nodes, 2))
            c = ego.center_local_index
            h_full = forward_id_full(mf, ego.subgraph, c, c, x)
            h_plain = forward_plain(mp, ego.subgraph, x)[c]
            assert np.max(np.abs(h_full - h_plain)) <= 1e-12
            done += 1


TREND_EPOCHS = 200
TREND_SEEDS = (0, 1, 2)


def test_criterion_9_node_cc_trend():
    with criterion(9, "node clustering task: id_fast beats plain by >= 15 pts"):
        start = time.monotonic()
        spec = GeneratorSpec("small_world", 40, 4, 0.3)
        graphs = gen_dataset(spec, 64, seed=11)
        task = make_node_cc_task(graphs)
        means = {}
        for variant, in_dim in (("plain", 1), ("id_fast", 11)):
            accs = []
            for seed in TREND_SEEDS:
                ts = split(task, 0.8, seed)
                cfg = ModelConfig(flavor="sage", variant=variant, num_layers=3,
                                  hidden_dim=32, input_dim=in_dim,
                                  output_dim=10, fast_k=10, seed=seed)
                model = init_model(cfg)
                rep = train(model, ts, epochs=TREND_EPOCHS, lr=0.01)
                accs.append(rep.final_val_accuracy)
            means[variant] = float(np.mean(accs))
        print(f"\n  node_cc mean accuracy: plain={means['plain']:.3f} "
              f"id_fast={means['id_fast']:.3f}")
        assert means["id_fast"] - means["plain"] >= 0.15
        assert time.monotonic() - start < 600.0


def test_criterion_10_spd_trend():
    with criterion(10, "SPD edge task: id_full conditional >= 0.85 and "
                       ">= 20 pts over pair-concat"):
        start = time.monotonic()
        spec = GeneratorSpec("small_world", 40, 4, 0.1)
        graphs = gen_dataset(spec, 64, seed=21)
        task = make_spd_task(graphs, pairs_per_graph=20, seed=99)
        means = {}
        for variant in ("plain", "id_full"):
            accs = []
            for seed in TREND_SEEDS:
                ts = split(task, 0.8, seed)
                cfg = ModelConfig(flavor="gcn", variant=variant, num_layers=5,
                                  hidden_dim=32, input_dim=1, output_dim=5,
                                  seed=seed)
                model = init_model(cfg)
                rep = train(model, ts, epochs=TREND_EPOCHS, lr=0.01)
                accs.append(rep.final_val_accuracy)
            means[variant] = float(np.mean(accs))
        print(f"\n  edge_spd mean accuracy: plain={means['plain']:.3f} "
              f"id_full={means['id_full']:.3f}")
        assert means["id_full"] >= 0.85
        assert means["id_full"] - means["plain"] >= 0.20
        assert time.monotonic() - start < 900.0


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "CLI pipelines rerun byte-identically"):
        outputs = {}
        for tag in ("run1", "run2"):
            base = tmp_path / tag
            base.mkdir()
            data = str(base / "data.jsonl")
            feats = str(base / "feats.jsonl")
            ckpt = str(base / "model.ckpt")
            report = str(base / "report.json")
            expr = str(base / "expr.json")
            summary = str(base / "summary.csv")
            assert cli_main(["generate", "--family", "small-world", "--n", "20",
                             "--k", "4", "--p", "0.3", "--count", "12",
                             "--seed", "5", "--out", data]) == 0
            assert cli_main(["features", "--data", data, "--k", "4",
                             "--out", feats]) == 0
            assert cli_main(["train", "--data", data, "--task", "node-cc",
                             "--variant", "id-fast", "--epochs", "5",
                             "--hidden", "8", "--seed", "2", "--out", ckpt,
                             "--report", report]) == 0
            assert cli_main(["expressiveness", "--n", "12", "--d", "3",
                             "--count", "6", "--k-list", "3,4", "--seed", "3",
                             "--out", expr]) == 0
            assert cli_main(["report", report, "--out", summary]) == 0
            outputs[tag] = {
                name: open(path, "rb").read()
                for name, path in (
                    ("data", data), ("feats", feats), ("ckpt", ckpt),
                    ("report", report), ("expr", expr),
                    ("expr_csv", str(base / "expr.csv")), ("summary", summary),
                )
            }
        for name in outputs["run1"]:
            assert outputs["run1"][name] == outputs["run2"][name], name
