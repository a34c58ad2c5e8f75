import argparse
import hashlib
import io
import json
import os
import resource
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import idgnn
from idgnn import cli, counts, expressiveness, nn, tasks
from idgnn.cli import main
from idgnn.datasets import GraphRecord, load_jsonl, save_graph, save_jsonl
from idgnn.graph import build_graph, relabel_graph

TWO_K3 = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
C6 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


def run(argv):
    return main(argv)


class TestGenerate:
    def test_small_world_dataset(self, tmp_path, capsys):
        out = str(tmp_path / "d.jsonl")
        code = run(["generate", "--family", "small-world", "--n", "40", "--k", "4",
                    "--p", "0.2", "--count", "64", "--seed", "1", "--out", out])
        assert code == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 64
        assert os.path.exists(out + ".manifest.json")

    def test_rerun_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        argv = ["generate", "--family", "scale-free", "--n", "30", "--m", "2",
                "--p-triad", "0.4", "--count", "8", "--seed", "3", "--out"]
        assert run(argv + [a]) == 0
        assert run(argv + [b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_parity_error_exit_2(self, tmp_path, capsys):
        out = str(tmp_path / "d.jsonl")
        code = run(["generate", "--family", "d-regular", "--n", "5", "--d", "3",
                    "--count", "1", "--seed", "0", "--out", out])
        assert code == 2
        assert "even" in capsys.readouterr().err

    @pytest.mark.parametrize("family, flag", [
        ("d-regular", "--d"), ("small-world", "--k"), ("scale-free", "--m"),
    ], ids=["d-regular", "small-world", "scale-free"])
    def test_missing_family_param(self, tmp_path, family, flag):
        out = tmp_path / "d.jsonl"
        assert run_failing(["generate", "--family", family, "--n", "8", "--count", "1",
                            "--seed", "0", "--out", str(out)]) == (
            f"error: {flag} is required for {family}")
        assert not out.exists()


class TestFeatures:
    def test_triangle_free_third_column_zero(self, tmp_path):
        path = str(tmp_path / "in.jsonl")
        p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        save_jsonl([GraphRecord(p4)], path)
        out = str(tmp_path / "out.jsonl")
        assert run(["features", "--data", path, "--k", "3", "--out", out]) == 0
        rec = load_jsonl(out)[0]
        feats = rec.graph.node_features
        assert feats.shape == (4, 3)
        assert not feats[:, 2].any()

    def test_appends_to_existing_features(self, tmp_path):
        path = str(tmp_path / "in.jsonl")
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)], node_features=[[5.0]] * 3)
        save_jsonl([GraphRecord(g, label=1)], path)
        out = str(tmp_path / "out.jsonl")
        assert run(["features", "--data", path, "--k", "2", "--out", out]) == 0
        rec = load_jsonl(out)[0]
        assert rec.label == 1
        assert rec.graph.node_features.shape == (3, 3)
        assert rec.graph.node_features[:, 0].tolist() == [5.0] * 3

    def test_malformed_jsonl_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{}\n{broken\n")
        out = str(tmp_path / "out.jsonl")
        assert run(["features", "--data", str(path), "--k", "2", "--out", out]) == 2
        assert "line" in capsys.readouterr().err


class TestWl:
    def test_compare_blind_pair(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_graph(TWO_K3, a)
        save_graph(C6, b)
        assert run(["wl", "compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "WL-indistinguishable, NOT isomorphic" in out

    def test_compare_hash_collision_is_distinguishable(self, tmp_path, capsys):
        # equal digests, but the degree sequences differ: 1-WL separates
        # the pair at round 1
        g = build_graph(7, [(0, 2), (0, 5), (0, 6), (1, 3), (1, 6), (2, 5), (3, 6), (4, 6)])
        h = build_graph(7, [(0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (1, 6), (3, 4), (4, 5)])
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_graph(g, a)
        save_graph(h, b)
        assert run(["wl", "compare", a, b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[0] == lines[1].split()[0] == "872c82ef7a02bc13"
        assert lines[2] == "verdict: WL-distinguishable, NOT isomorphic"

    def test_compare_relabeled(self, tmp_path, capsys):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        h = relabel_graph(g, [3, 1, 4, 0, 2])
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_graph(g, a)
        save_graph(h, b)
        assert run(["wl", "compare", a, b]) == 0
        assert "verdict: isomorphic" in capsys.readouterr().out

    def test_hash_prints_16_hex(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        save_graph(C6, a)
        assert run(["wl", "hash", a]) == 0
        line = capsys.readouterr().out.strip()
        assert len(line) == 16
        int(line, 16)

    def test_dedupe(self, tmp_path, capsys):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        h = relabel_graph(g, [2, 0, 3, 1])
        other = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        path = str(tmp_path / "in.jsonl")
        save_jsonl([GraphRecord(g), GraphRecord(h), GraphRecord(other)], path)
        out = str(tmp_path / "out.jsonl")
        assert run(["wl", "dedupe", "--data", path, "--out", out]) == 0
        assert len(load_jsonl(out)) == 2

    @pytest.mark.parametrize("n", [120, 128])
    def test_dedupe_complete_graphs(self, tmp_path, capsys, n):
        # closed-walk counts of K120 pass 2^62 at length 10; the signatures
        # stop at the isomorphism keys' length, which fits K128
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        path, out = str(tmp_path / "in.jsonl"), str(tmp_path / "out.jsonl")
        perm = np.random.default_rng(n).permutation(n).tolist()
        save_jsonl([GraphRecord(g), GraphRecord(relabel_graph(g, perm))], path)
        assert run(["wl", "dedupe", "--data", path, "--out", out]) == 0
        assert capsys.readouterr().out == "kept 1 of 2 graphs\n"
        assert load_jsonl(out)[0].graph.num_edges == n * (n - 1) // 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(["wl", "hash", str(tmp_path / "nope.json")]) == 2


class TestExpressiveness:
    def test_small_run(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = run(["expressiveness", "--n", "12", "--d", "3", "--count", "6",
                    "--k-list", "3,4,5", "--seed", "2", "--out", out])
        assert code == 0
        report = json.load(open(out))
        fracs = [report["fractions"][k] for k in ("3", "4", "5")]
        assert fracs == sorted(fracs)
        assert "timestamp" not in report
        csv_path = str(tmp_path / "report.csv")
        header = open(csv_path).read().split("\n")[0]
        assert header == "n,d,graph_count,wl_baseline,K=3,K=4,K=5"

    def test_rerun_byte_identical(self, tmp_path):
        argv = ["expressiveness", "--n", "10", "--d", "3", "--count", "4",
                "--k-list", "3", "--seed", "5", "--out"]
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(argv + [a]) == 0
        assert run(argv + [b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = str(tmp_path / "data.jsonl")
    assert run(["generate", "--family", "small-world", "--n", "16", "--k", "4",
                "--p", "0.3", "--count", "8", "--seed", "4", "--out", path]) == 0
    return path


class TestTrainEval:
    def test_train_writes_checkpoint_and_report(self, tmp_path, tiny_dataset, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        rep = str(tmp_path / "r.json")
        code = run(["train", "--data", tiny_dataset, "--task", "node-cc",
                    "--variant", "id-fast", "--epochs", "3", "--hidden", "8",
                    "--seed", "0", "--out", ckpt, "--report", rep])
        assert code == 0
        report = json.load(open(rep))
        assert report["wiring"] == "node_head"
        assert report["config"]["variant"] == "id_fast"
        assert len(report["train_losses"]) == 3
        assert "wall_clock_seconds" not in report
        assert os.path.exists(ckpt)

    def test_train_rerun_identical_report(self, tmp_path, tiny_dataset):
        reports = []
        for name in ("r1.json", "r2.json"):
            rep = str(tmp_path / name)
            ckpt = str(tmp_path / (name + ".ckpt"))
            assert run(["train", "--data", tiny_dataset, "--task", "graph-cc",
                        "--epochs", "2", "--hidden", "6", "--seed", "1",
                        "--out", ckpt, "--report", rep]) == 0
            reports.append(open(rep, "rb").read())
        assert reports[0] == reports[1]

    def test_edge_task_id_full_wiring(self, tmp_path, tiny_dataset):
        ckpt = str(tmp_path / "m.ckpt")
        rep = str(tmp_path / "r.json")
        code = run(["train", "--data", tiny_dataset, "--task", "edge-spd",
                    "--flavor", "gcn", "--variant", "id-full", "--epochs", "1",
                    "--hidden", "6", "--pairs-per-graph", "4", "--seed", "0",
                    "--out", ckpt, "--report", rep])
        assert code == 0
        report = json.load(open(rep))
        assert report["wiring"] == "conditional"
        assert report["config"]["num_layers"] == 5  # edge default

    def test_missing_dataset_exit_2(self, tmp_path):
        code = run(["train", "--data", str(tmp_path / "nope.jsonl"),
                    "--task", "node-cc", "--epochs", "1",
                    "--out", str(tmp_path / "m.ckpt")])
        assert code == 2

    def test_eval_roundtrip(self, tmp_path, tiny_dataset, capsys):
        ckpt = str(tmp_path / "m.ckpt")
        assert run(["train", "--data", tiny_dataset, "--task", "node-cc",
                    "--epochs", "2", "--hidden", "6", "--seed", "0",
                    "--out", ckpt]) == 0
        capsys.readouterr()
        assert run(["eval", "--model", ckpt, "--data", tiny_dataset,
                    "--task", "node-cc"]) == 0
        result = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert 0.0 <= result["accuracy"] <= 1.0


@pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
def test_bad_learning_rate_exit_2(tmp_path, tiny_dataset, capsys, lr):
    ckpt = tmp_path / "m.ckpt"
    code = run(["train", "--data", tiny_dataset, "--task", "node-cc", "--epochs", "1",
                "--lr", lr, "--out", str(ckpt)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and "lr" in captured.err
    assert not ckpt.exists()


def test_unallocatable_width_exit_3(tmp_path, tiny_dataset, capsys):
    # the first weight matrix needs 8 TB, so allocation fails at once
    ckpt = tmp_path / "m.ckpt"
    code = run(["train", "--data", tiny_dataset, "--task", "node-cc", "--epochs", "0",
                "--hidden", str(10**12), "--out", str(ckpt)])
    captured = capsys.readouterr()
    assert code == 3
    assert len(captured.err.strip().split("\n")) == 1
    assert captured.err.startswith("capability error: ")
    assert not ckpt.exists()


def run_failing(argv) -> str:
    """Run a call that must fail on its input: exit 2, one stderr line that
    starts with ``error: ``, no traceback. Returns that line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert "Traceback" not in err.getvalue()
    lines = err.getvalue().strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


@pytest.mark.parametrize("trained, evaluated", [("node-cc", "edge-spd"),
                                                ("edge-spd", "node-cc")])
def test_eval_rejects_checkpoint_of_other_task(tmp_path, trained, evaluated):
    # node-cc has 10 classes and edge-spd 5; n = 40 leaves every SPD class
    # populated, so making the task logs nothing
    data, ckpt = str(tmp_path / "d.jsonl"), str(tmp_path / "m.ckpt")
    assert run(["generate", "--family", "small-world", "--n", "40", "--k", "4",
                "--p", "0.1", "--count", "4", "--seed", "0", "--out", data]) == 0
    assert run(["train", "--data", data, "--task", trained, "--epochs", "1",
                "--layers", "1", "--hidden", "4", "--out", ckpt]) == 0
    line = run_failing(["eval", "--model", ckpt, "--data", data, "--task", evaluated])
    assert "output_dim" in line


def test_eval_class_check_comes_before_the_task(tmp_path):
    # on 8 small-world graphs with n = 16 no pair is 5 hops apart, so making
    # the SPD task would log one warning per graph; the checkpoint's class
    # count is checked first, and a separate process shows all of stderr
    data, ckpt = str(tmp_path / "d.jsonl"), str(tmp_path / "m.ckpt")
    assert run(["generate", "--family", "small-world", "--n", "16", "--k", "4",
                "--p", "0.1", "--count", "8", "--seed", "0", "--out", data]) == 0
    assert run(["train", "--data", data, "--task", "node-cc", "--epochs", "1",
                "--layers", "1", "--hidden", "4", "--out", ckpt]) == 0
    proc = run_process(["eval", "--model", ckpt, "--data", data, "--task", "edge-spd"])
    assert proc.returncode == 2
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: ") and "output_dim" in lines[0]


def run_process(argv, env=os.environ, **kwargs):
    """Run the CLI in a separate process, so that everything it writes to
    stderr, numpy warnings and log records included, is seen."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(idgnn.__file__)))
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-m", "idgnn.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120, **kwargs)


def test_huge_num_nodes_exit_3(tmp_path):
    # build_graph allocates per node, so the node cap must stop this one-line
    # file before any allocation; the child's address space is limited, so a
    # missing cap fails the message check instead of exhausting memory
    path = tmp_path / "g.json"
    path.write_text('{"num_nodes": 10000000000, "edges": []}')
    limit = 2 << 30
    proc = run_process(["wl", "hash", str(path)], preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("capability error: num_nodes ")


def test_huge_num_nodes_names_its_line(tmp_path):
    # the node cap is checked per dataset line, like every malformed field
    path = tmp_path / "d.jsonl"
    path.write_text('{"num_nodes": 2, "edges": [[0, 1]]}\n'
                    '{"num_nodes": 10000000000, "edges": []}\n')
    limit = 2 << 30
    proc = run_process(["wl", "dedupe", "--data", str(path), "--out", str(tmp_path / "o.jsonl")],
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == ("capability error: line 2: num_nodes 10000000000 "
                           "is above the limit of 1000000\n")
    assert not (tmp_path / "o.jsonl").exists()


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # the rerun promise holds at a fixed BLAS thread count; these outputs
    # also agree across counts (trained parameters may not: the thread count
    # can change how BLAS sums)
    data, fixed = str(tmp_path / "d.jsonl"), str(tmp_path / "fixed.ckpt")
    config = ["--task", "edge-spd", "--flavor", "gcn", "--variant", "id-full"]
    assert run(["generate", "--family", "small-world", "--n", "20", "--k", "4", "--p", "0.2",
                "--count", "8", "--seed", "1", "--out", data]) == 0
    assert run(["train", "--data", data, *config, "--epochs", "3", "--out", fixed]) == 0
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        for argv in (["train", "--data", data, *config, "--epochs", "0",
                      "--out", str(out / "m.ckpt"), "--report", str(out / "r.json")],
                     ["eval", "--model", fixed, "--data", data, "--task", "edge-spd",
                      "--out", str(out / "e.json")]):
            assert run_process(argv, env=env).returncode == 0
        outputs.append([(out / name).read_bytes() for name in ("m.ckpt", "r.json", "e.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("config", [
    ["--flavor", "sage", "--aggregation", "max", "--variant", "id-fast"],
    ["--flavor", "gcn", "--variant", "id-full"],
], ids=["sage-max-id-fast", "gcn-id-full"])
def test_train_overflow_one_stderr_line_exit_4(tmp_path, tiny_dataset, config):
    # the first Adam step at lr = 1e308 overflows the parameters, the next
    # forward pass meets inf and nan, and the loss check reports it; numpy
    # warnings on the way would be further stderr lines
    ckpt = tmp_path / "m.ckpt"
    proc = run_process(["train", "--data", tiny_dataset, "--task", "node-cc", *config,
                        "--epochs", "4", "--lr", "1e308", "--out", str(ckpt)])
    assert proc.returncode == 4
    assert proc.stdout == ""
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("numeric failure: ")
    assert not ckpt.exists()


@pytest.mark.parametrize("k_list", ["a", "3.5", "3,x", "99999999999999999999"])
def test_bad_k_list_exit_2(tmp_path, k_list):
    out = tmp_path / "r.json"
    run_failing(["expressiveness", "--n", "8", "--d", "3", "--count", "2",
                 "--k-list", k_list, "--seed", "0", "--out", str(out)])
    assert not out.exists()


def test_features_huge_k_exit_2(tmp_path, tiny_dataset):
    out = tmp_path / "f.jsonl"
    line = run_failing(["features", "--data", tiny_dataset, "--k", "99999999999999999999",
                        "--out", str(out)])
    assert "k=99999999999999999999" in line
    assert not out.exists()


def test_huge_k_list_rejected_before_the_pool(tmp_path, monkeypatch):
    # the stacked count matrix of this k cannot exist, so no graph is drawn
    def no_draws(*args):
        raise AssertionError("the pool was built")

    monkeypatch.setattr(expressiveness, "gen_d_regular_many", no_draws)
    out = tmp_path / "r.json"
    line = run_failing(["expressiveness", "--n", "96", "--d", "6", "--count", "100",
                        "--k-list", "99999999999999999999", "--seed", "0",
                        "--out", str(out)])
    assert "k=99999999999999999999" in line
    assert not out.exists()


@pytest.mark.parametrize("variant", ["plain", "id-full"])
def test_graph_task_with_empty_graph_exit_2(tmp_path, variant):
    # a 0-node graph has no node embedding to pool, whichever split holds it
    graphs = [TWO_K3, C6, build_graph(0, []), TWO_K3, C6]
    data, ckpt = str(tmp_path / "d.jsonl"), tmp_path / "m.ckpt"
    save_jsonl([GraphRecord(g) for g in graphs], data)
    line = run_failing(["train", "--data", data, "--task", "graph-cc", "--variant", variant,
                        "--epochs", "1", "--layers", "1", "--hidden", "4",
                        "--out", str(ckpt)])
    assert "node" in line
    assert not ckpt.exists()
    good = str(tmp_path / "good.jsonl")
    save_jsonl([GraphRecord(g) for g in graphs if g.num_nodes], good)
    assert run(["train", "--data", good, "--task", "graph-cc", "--variant", variant,
                "--epochs", "1", "--layers", "1", "--hidden", "4", "--out", str(ckpt)]) == 0
    run_failing(["eval", "--model", str(ckpt), "--data", data, "--task", "graph-cc"])


def test_directory_paths_exit_2(tmp_path, tiny_dataset):
    folder = tmp_path / "folder"
    folder.mkdir()
    run_failing(["train", "--data", tiny_dataset, "--task", "node-cc", "--epochs", "1",
                 "--hidden", "4", "--out", str(folder)])
    run_failing(["generate", "--family", "small-world", "--n", "16", "--k", "4",
                 "--count", "2", "--seed", "0", "--out", str(folder)])
    run_failing(["wl", "hash", str(folder)])
    assert list(folder.iterdir()) == []


OUT_OF_RANGE_SEEDS = [str(2**63), str(-2**63 - 1)]


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_generate_seed_outside_64_bits_exit_2(tmp_path, seed):
    out = tmp_path / "d.jsonl"
    line = run_failing(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                        "--count", "2", "--seed", seed, "--out", str(out)])
    assert "64-bit" in line
    assert not out.exists()


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_generate_zero_graphs_seed_outside_64_bits_exit_2(tmp_path, seed):
    # the seed is checked even when no graph is drawn from it
    out = tmp_path / "d.jsonl"
    line = run_failing(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                        "--count", "0", "--seed", seed, "--out", str(out)])
    assert "64-bit" in line
    assert not out.exists()


def test_generate_zero_graphs_invalid_spec_exit_2(tmp_path):
    out = tmp_path / "d.jsonl"
    line = run_failing(["generate", "--family", "d-regular", "--n", "5", "--d", "3",
                        "--count", "0", "--seed", "0", "--out", str(out)])
    assert "even" in line
    assert not out.exists()


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_expressiveness_seed_outside_64_bits_exit_2(tmp_path, seed):
    out = tmp_path / "r.json"
    line = run_failing(["expressiveness", "--n", "8", "--d", "3", "--count", "2",
                        "--k-list", "3", "--seed", seed, "--out", str(out)])
    assert "64-bit" in line
    assert not out.exists()


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_train_edge_task_seed_outside_64_bits_exit_2(tmp_path, tiny_dataset, seed):
    ckpt = tmp_path / "m.ckpt"
    line = run_failing(["train", "--data", tiny_dataset, "--task", "edge-spd",
                        "--epochs", "1", "--seed", seed, "--out", str(ckpt)])
    assert "64-bit" in line
    assert not ckpt.exists()


@pytest.mark.parametrize("seed", OUT_OF_RANGE_SEEDS)
def test_eval_edge_task_seed_outside_64_bits_exit_2(tmp_path, tiny_dataset, seed):
    ckpt, out = str(tmp_path / "m.ckpt"), tmp_path / "e.json"
    assert run(["train", "--data", tiny_dataset, "--task", "edge-spd", "--epochs", "0",
                "--layers", "1", "--hidden", "4", "--out", ckpt]) == 0
    line = run_failing(["eval", "--model", ckpt, "--data", tiny_dataset,
                        "--task", "edge-spd", "--seed", seed, "--out", str(out)])
    assert "64-bit" in line
    assert not out.exists()


@pytest.mark.parametrize("task", ["node-cc", "edge-spd"])
def test_train_negative_seed_exit_2(tmp_path, tiny_dataset, task):
    ckpt = tmp_path / "m.ckpt"
    line = run_failing(["train", "--data", tiny_dataset, "--task", task,
                        "--epochs", "1", "--seed", "-1", "--out", str(ckpt)])
    assert "seed must be nonnegative" in line
    assert not ckpt.exists()


@pytest.mark.parametrize("seed", ["-1", str(-2**63), str(2**63 - 1)])
def test_signed_64_bit_seeds_generate_and_expressiveness(tmp_path, seed):
    assert run(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                "--count", "2", "--seed", seed, "--out", str(tmp_path / "d.jsonl")]) == 0
    assert run(["expressiveness", "--n", "8", "--d", "3", "--count", "2",
                "--k-list", "3", "--seed", seed, "--out", str(tmp_path / "r.json")]) == 0


class TestCheckpointHeader:
    """Malformed checkpoints written from a real ``train`` run end in exit 2
    with one stderr line, and parameters that overflow the logits in exit 4;
    headers from before edge features were removed carry ``"edge_dim": 0``
    and still load."""

    @pytest.fixture()
    def raw(self, tmp_path, tiny_dataset):
        ckpt = tmp_path / "m.ckpt"
        assert run(["train", "--data", tiny_dataset, "--task", "node-cc",
                    "--flavor", "sage", "--aggregation", "max", "--epochs", "2",
                    "--hidden", "6", "--seed", "0", "--out", str(ckpt)]) == 0
        return ckpt.read_bytes()

    @staticmethod
    def with_config(raw, **changes):
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + hlen])
        header["config"].update(changes)
        body = json.dumps(header, separators=(",", ":")).encode()
        return raw[:8] + struct.pack("<I", len(body)) + body + raw[12 + hlen:]

    @staticmethod
    def with_blob(raw, edit):
        (hlen,) = struct.unpack("<I", raw[8:12])
        blob = np.frombuffer(raw[12 + hlen:], dtype="<f8").copy()
        edit(blob)
        return raw[:12 + hlen] + blob.astype("<f8").tobytes()

    def eval_bytes(self, tmp_path, tiny_dataset, data, capsys):
        path = tmp_path / "edited.ckpt"
        path.write_bytes(data)
        capsys.readouterr()
        # a numpy warning would be a second stderr line from the CLI
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["eval", "--model", str(path), "--data", tiny_dataset,
                        "--task", "node-cc"])
        return code, capsys.readouterr()

    def assert_input_error(self, tmp_path, tiny_dataset, data, capsys):
        code, captured = self.eval_bytes(tmp_path, tiny_dataset, data, capsys)
        assert code == 2
        assert len(captured.err.strip().split("\n")) == 1
        assert captured.err.startswith("error: ")

    def test_truncated_header(self, tmp_path, tiny_dataset, raw, capsys):
        (hlen,) = struct.unpack("<I", raw[8:12])
        self.assert_input_error(tmp_path, tiny_dataset, raw[:12 + hlen // 2], capsys)
        self.assert_input_error(tmp_path, tiny_dataset, raw[:10], capsys)

    def test_negative_seed_rejected(self, tmp_path, tiny_dataset, raw, capsys):
        self.assert_input_error(tmp_path, tiny_dataset, self.with_config(raw, seed=-1),
                                capsys)

    def test_short_blob(self, tmp_path, tiny_dataset, raw, capsys):
        self.assert_input_error(tmp_path, tiny_dataset, raw[:-8], capsys)
        self.assert_input_error(tmp_path, tiny_dataset, raw[:-3], capsys)

    def test_unknown_config_key(self, tmp_path, tiny_dataset, raw, capsys):
        edited = self.with_config(raw, dropout=0.5)
        self.assert_input_error(tmp_path, tiny_dataset, edited, capsys)

    def test_nonzero_edge_dim_rejected(self, tmp_path, tiny_dataset, raw, capsys):
        edited = self.with_config(raw, edge_dim=2)
        self.assert_input_error(tmp_path, tiny_dataset, edited, capsys)

    def test_huge_config_rejected_before_allocation(self, tmp_path, tiny_dataset,
                                                     raw, capsys):
        edited = self.with_config(raw, hidden_dim=10**12)
        self.assert_input_error(tmp_path, tiny_dataset, edited, capsys)
        edited = self.with_config(raw, num_layers=10**12)
        self.assert_input_error(tmp_path, tiny_dataset, edited, capsys)

    def test_nan_parameter_rejected(self, tmp_path, tiny_dataset, raw, capsys):
        def poison(blob):
            blob[len(blob) // 2] = np.nan
        edited = self.with_blob(raw, poison)
        self.assert_input_error(tmp_path, tiny_dataset, edited, capsys)

    def test_overflowing_logits_exit_4(self, tmp_path, tiny_dataset, raw, capsys):
        def scale(blob):
            blob *= 1e300
        code, captured = self.eval_bytes(tmp_path, tiny_dataset,
                                         self.with_blob(raw, scale), capsys)
        assert code == 4
        assert len(captured.err.strip().split("\n")) == 1
        assert captured.err.startswith("numeric failure: ")
        assert captured.out == ""

    def test_legacy_zero_edge_dim_loads(self, tmp_path, tiny_dataset, raw, capsys):
        assert b"edge_dim" not in raw
        code, fresh = self.eval_bytes(tmp_path, tiny_dataset, raw, capsys)
        assert code == 0
        edited = self.with_config(raw, edge_dim=0)
        code, legacy = self.eval_bytes(tmp_path, tiny_dataset, edited, capsys)
        assert code == 0
        assert legacy.out == fresh.out


class TestReport:
    def test_csv_summary(self, tmp_path, tiny_dataset, capsys):
        reports = []
        for seed in ("0", "1"):
            rep = str(tmp_path / f"r{seed}.json")
            ckpt = str(tmp_path / f"m{seed}.ckpt")
            assert run(["train", "--data", tiny_dataset, "--task", "node-cc",
                        "--epochs", "1", "--hidden", "6", "--seed", seed,
                        "--out", ckpt, "--report", rep]) == 0
            reports.append(rep)
        out = str(tmp_path / "summary.csv")
        assert run(["report", *reports, "--out", out]) == 0
        lines = open(out).read().strip().split("\n")
        assert lines[0] == "report,flavor,variant,task,seed,accuracy"
        assert len(lines) == 3

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe{}", b'{"config": {}}'],
                             ids=["not-json", "not-utf8", "missing-fields"])
    def test_malformed_report_exit_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        out = tmp_path / "summary.csv"
        assert run(["report", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]
        assert not out.exists()


def test_capability_limit_exit_3(tmp_path, capsys):
    # K4 is the only 3-regular graph on 4 nodes, so a pool of 2 pairwise
    # non-isomorphic graphs exhausts the regeneration budget
    out = str(tmp_path / "r.json")
    code = run(["expressiveness", "--n", "4", "--d", "3", "--count", "2",
                "--k-list", "3", "--seed", "0", "--out", out])
    assert code == 3
    assert "capability" in capsys.readouterr().err


def test_numeric_failure_exit_4(tmp_path, monkeypatch, capsys):
    from idgnn import cli
    from idgnn.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("loss went non-finite")

    monkeypatch.setattr(cli, "train", boom)
    data = str(tmp_path / "d.jsonl")
    assert run(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                "--count", "5", "--seed", "0", "--out", data]) == 0
    code = run(["train", "--data", data, "--task", "node-cc", "--epochs", "1",
                "--out", str(tmp_path / "m.ckpt")])
    assert code == 4
    assert "numeric" in capsys.readouterr().err


def test_manifest_contents(tmp_path):
    out = str(tmp_path / "d.jsonl")
    assert run(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                "--count", "2", "--seed", "9", "--out", out]) == 0
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["subcommand"] == "generate"
    assert manifest["flags"]["seed"] == 9
    assert manifest["rng"]["name"] == "pcg64"


class TestCorruptedInputs:
    """Truncated and bit-flipped files written by ``train`` and ``generate``
    end in a documented exit code, never in a traceback, with one stderr line
    when the call fails."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("written")
        data, ckpt = root / "d.jsonl", root / "m.ckpt"
        assert run(["generate", "--family", "small-world", "--n", "12", "--k", "4",
                    "--p", "0.3", "--count", "4", "--seed", "4", "--out", str(data)]) == 0
        assert run(["train", "--data", str(data), "--task", "node-cc", "--variant", "id-fast",
                    "--flavor", "sage", "--aggregation", "max", "--epochs", "1",
                    "--hidden", "4", "--seed", "0", "--out", str(ckpt)]) == 0
        return root, data, ckpt

    @staticmethod
    def corrupt(raw: bytes, data) -> bytes:
        buf = bytearray(raw)
        for bit in data.draw(st.lists(st.integers(0, 8 * len(buf) - 1), max_size=3)):
            buf[bit // 8] ^= 1 << (bit % 8)
        keep = data.draw(st.one_of(st.just(len(buf)), st.integers(0, len(buf))))
        return bytes(buf[:keep])

    @staticmethod
    def assert_clean_exit(argv):
        out, err = io.StringIO(), io.StringIO()
        # a numpy warning would be a second stderr line from the CLI
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 4)
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert len(err.getvalue().strip().split("\n")) == 1
        return code

    def test_fast_k_wider_than_input(self, written):
        root, dataset, ckpt = written
        path = root / "wide_fast_k.ckpt"
        path.write_bytes(TestCheckpointHeader.with_config(ckpt.read_bytes(), fast_k=99))
        assert self.assert_clean_exit(["eval", "--model", str(path), "--data", str(dataset),
                                       "--task", "node-cc"]) == 2

    def test_invalid_utf8(self, written):
        root, dataset, ckpt = written
        path = root / "latin1.jsonl"
        path.write_bytes(b"\xff" + dataset.read_bytes())
        for argv in (["eval", "--model", str(ckpt), "--data", str(path), "--task", "node-cc"],
                     ["features", "--data", str(path), "--k", "3",
                      "--out", str(root / "features.jsonl")],
                     ["wl", "hash", str(path)]):
            assert self.assert_clean_exit(argv) == 2

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corrupted_checkpoint(self, written, data):
        root, dataset, ckpt = written
        path = root / "corrupt.ckpt"
        path.write_bytes(self.corrupt(ckpt.read_bytes(), data))
        self.assert_clean_exit(["eval", "--model", str(path), "--data", str(dataset),
                                "--task", "node-cc"])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_corrupted_jsonl(self, written, data):
        root, dataset, ckpt = written
        path = root / "corrupt.jsonl"
        path.write_bytes(self.corrupt(dataset.read_bytes(), data))
        self.assert_clean_exit(["eval", "--model", str(ckpt), "--data", str(path),
                                "--task", "node-cc"])
        self.assert_clean_exit(["features", "--data", str(path), "--k", "3",
                                "--out", str(root / "features.jsonl")])


@pytest.mark.parametrize("task", ["node-cc", "graph-cc"])
def test_id_fast_clustering_commands_run_the_kernel_once(tmp_path, tiny_dataset,
                                                         monkeypatch, task):
    # the task's labels and the model's count columns, train and validation
    # splits alike, read one count matrix per graph
    calls = []
    kernel = counts.walk_count_features_many

    def counted(graphs, k):
        calls.append(k)
        return kernel(graphs, k)

    bound = [m for m in (counts, nn, tasks) if hasattr(m, "walk_count_features_many")]
    assert counts in bound and tasks in bound
    for module in bound:
        monkeypatch.setattr(module, "walk_count_features_many", counted)
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["train", "--data", tiny_dataset, "--task", task, "--variant", "id-fast",
                "--fast-k", "6", "--epochs", "2", "--hidden", "4", "--out", ckpt]) == 0
    assert calls == [6]
    calls.clear()
    assert run(["eval", "--model", ckpt, "--data", tiny_dataset, "--task", task]) == 0
    assert calls == [6]


@pytest.mark.parametrize("task", ["node-cc", "graph-cc"])
@pytest.mark.parametrize("fast_k, code, message", [
    ("0", 2, "error: id_fast requires 1 <= fast_k <= input_dim"),
    ("-1", 2, "error: all dimensions must be >= 1"),
    # the model is built before the task, whose counts would be this wide
    (str(10**12), 3, "capability error: out of memory: Unable to allocate"),
])
def test_train_fast_k_out_of_range(tmp_path, tiny_dataset, capsys, task, fast_k, code,
                                   message):
    ckpt = tmp_path / "m.ckpt"
    assert run(["train", "--data", tiny_dataset, "--task", task, "--variant", "id-fast",
                f"--fast-k={fast_k}", "--epochs", "0", "--out", str(ckpt)]) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    if code == 3:
        assert f"(32, {10**12 + 1})" in err
    assert not ckpt.exists()


def test_failed_write_names_the_out_path(tmp_path):
    # the temp file's random name would make stderr differ between reruns
    out = tmp_path / "missing" / "g.jsonl"
    line = run_failing(["generate", "--family", "small-world", "--n", "12", "--k", "4",
                        "--count", "2", "--seed", "1", "--out", str(out)])
    assert line == f"error: [Errno 2] No such file or directory: {str(out)!r}"
    assert list(tmp_path.iterdir()) == []


def test_failed_train_leaves_no_checkpoint(tmp_path, tiny_dataset):
    # the checkpoint is written first; a failed report write removes it
    ckpt, report = tmp_path / "m.ckpt", tmp_path / "missing" / "r.json"
    line = run_failing(["train", "--data", tiny_dataset, "--task", "node-cc",
                        "--epochs", "1", "--hidden", "4", "--out", str(ckpt),
                        "--report", str(report)])
    assert line == f"error: [Errno 2] No such file or directory: {str(report)!r}"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["data.jsonl",
                                                          "data.jsonl.manifest.json"]


def test_failed_expressiveness_leaves_no_report(tmp_path):
    # a directory where the CSV goes fails the second write
    (tmp_path / "t.csv").mkdir()
    out = tmp_path / "t.json"
    line = run_failing(["expressiveness", "--n", "8", "--d", "3", "--count", "2",
                        "--k-list", "2", "--seed", "0", "--out", str(out)])
    assert line.startswith("error: [Errno 21] Is a directory: ")
    assert [f.name for f in tmp_path.iterdir()] == ["t.csv"]
    assert list((tmp_path / "t.csv").iterdir()) == []


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_manifest_digests_an_input_that_an_output_replaces(tmp_path, tiny_dataset):
    data = str(tmp_path / "d.jsonl")
    with open(tiny_dataset, "rb") as src, open(data, "wb") as dst:
        dst.write(src.read())
    before = _sha256(data)
    assert run(["features", "--data", data, "--k", "3", "--out", data]) == 0
    manifest = json.load(open(data + ".manifest.json"))
    assert manifest["inputs"] == {data: before}
    before = _sha256(data)
    assert run(["train", "--data", data, "--task", "node-cc", "--epochs", "1",
                "--hidden", "4", "--out", data]) == 0
    manifest = json.load(open(data + ".manifest.json"))
    assert manifest["inputs"] == {data: before} and _sha256(data) != before
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["train", "--data", tiny_dataset, "--task", "node-cc", "--epochs", "1",
                "--hidden", "4", "--out", ckpt]) == 0
    before = _sha256(ckpt)
    assert run(["eval", "--model", ckpt, "--data", tiny_dataset, "--task", "node-cc",
                "--out", ckpt]) == 0
    manifest = json.load(open(ckpt + ".manifest.json"))
    assert manifest["inputs"] == {ckpt: before, tiny_dataset: _sha256(tiny_dataset)}


@pytest.fixture()
def spd_gaps_dataset(tmp_path):
    # two distance classes are missing from each of these 6 graphs, so
    # drawing SPD pairs logs 12 warnings
    path = str(tmp_path / "gaps.jsonl")
    assert run(["generate", "--family", "small-world", "--n", "12", "--k", "4",
                "--p", "0.2", "--count", "6", "--seed", "1", "--out", path]) == 0
    return path


def _skipped_classes(caplog) -> int:
    return sum("class skipped" in rec.getMessage() for rec in caplog.records)


@pytest.mark.parametrize("flag, message", [
    ("--layers=0", "error: num_layers must be >= 1"),
    ("--hidden=0", "error: all dimensions must be >= 1"),
    ("--seed=-1", "error: seed must be nonnegative, got -1"),
    ("--split-fraction=1.5", "error: fraction must be in (0, 1), got 1.5"),
    ("--lr=nan", "error: lr must be positive and finite, got nan"),
    ("--epochs=-1", "error: epochs must be nonnegative"),
])
def test_train_edge_task_bad_flag_before_pairs(tmp_path, spd_gaps_dataset, caplog, flag,
                                               message):
    ckpt = tmp_path / "m.ckpt"
    assert run_failing(["train", "--data", spd_gaps_dataset, "--task", "edge-spd",
                        "--epochs", "1", flag, "--out", str(ckpt)]) == message
    assert _skipped_classes(caplog) == 0
    assert not ckpt.exists()


def test_train_edge_task_warnings_of_a_valid_run(tmp_path, spd_gaps_dataset, caplog):
    assert run(["train", "--data", spd_gaps_dataset, "--task", "edge-spd", "--epochs", "1",
                "--hidden", "4", "--out", str(tmp_path / "m.ckpt")]) == 0
    assert _skipped_classes(caplog) == 12


LONE_NODES = '{"num_nodes":1,"edges":[]}\n' * 3


@pytest.mark.parametrize("graphs, flags, code, message", [
    (6, ["--layers", "0"], 2, "error: num_layers must be >= 1\n"),
    (6, ["--hidden", "1000000000000"], 3, "capability error: out of memory: "),
    (1, [], 2, "error: split of 1 items at 0.8 leaves a side empty\n"),
    (LONE_NODES, [], 2, "error: no labeled items in the training split\n"),
    (6, ["--lr", "1e300"], 4, "numeric failure: "),
], ids=["layers-0", "hidden-huge", "one-graph", "lone-nodes", "lr-1e300"])
def test_train_edge_task_bad_flag_one_stderr_line(tmp_path, spd_gaps_dataset, graphs, flags,
                                                  code, message):
    # a separate process shows the log records that pytest would capture;
    # graphs is the number of the gaps fixture's graphs kept, or a dataset
    # of three one-node graphs, whose 15 skipped classes are not logged
    data = tmp_path / "first.jsonl"
    data.write_text(graphs if isinstance(graphs, str)
                    else "".join(open(spd_gaps_dataset).readlines()[:graphs]))
    proc = run_process(["train", "--data", str(data), "--task", "edge-spd", *flags,
                        "--out", str(tmp_path / "m.ckpt")])
    assert proc.returncode == code
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1


def test_eval_edge_task_failure_one_stderr_line(tmp_path, spd_gaps_dataset):
    # parameters of 1e200 overflow the logits: evaluation fails after the
    # pairs are drawn, and the 12 skipped classes are not logged
    ckpt = str(tmp_path / "m.ckpt")
    assert run(["train", "--data", spd_gaps_dataset, "--task", "edge-spd", "--epochs", "0",
                "--hidden", "4", "--out", ckpt]) == 0
    model = nn.load_model(ckpt)
    for arr in model.params.values():
        arr[...] = 1e200
    nn.save_model(model, ckpt)
    proc = run_process(["eval", "--model", ckpt, "--data", spd_gaps_dataset,
                        "--task", "edge-spd"])
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr == "numeric failure: evaluation produced non-finite logits\n"


def run_captured(argv) -> tuple:
    """Exit code, stdout and stderr of one in-process call, argparse's
    exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["train", "expressiveness"])
def test_stamp_is_not_a_flag(tmp_path, tiny_dataset, command):
    # no output reads a clock: a stamped run is a usage error that writes nothing
    out = tmp_path / "out.json"
    argv = {"train": ["train", "--data", tiny_dataset, "--task", "node-cc", "--seed", "0",
                      "--report", str(tmp_path / "r.json")],
            "expressiveness": ["expressiveness", "--n", "8", "--d", "3", "--count", "2",
                               "--k-list", "3", "--seed", "0"]}[command]
    code, stdout, stderr = run_captured(argv + ["--out", str(out), "--stamp"])
    assert (code, stdout) == (2, "")
    assert "unrecognized arguments: --stamp" in stderr
    assert sorted(os.listdir(tmp_path)) == ["data.jsonl", "data.jsonl.manifest.json"]


@pytest.fixture()
def fresh_parser():
    """main's parser is built again on the next call, and again after the
    test, so no test sees one built under another's patches."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_builds_the_parser_once(tmp_path, monkeypatch, fresh_parser):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser()
    per_tree = len(built)
    assert per_tree == 11  # idgnn, its 7 subcommands and wl's 3
    built.clear()
    data = str(tmp_path / "d.jsonl")
    assert run(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                "--count", "2", "--seed", "1", "--out", data]) == 0
    assert run(["wl", "dedupe", "--data", data, "--out", str(tmp_path / "k.jsonl")]) == 0
    assert run(["features", "--data", data, "--k", "3",
                "--out", str(tmp_path / "f.jsonl")]) == 0
    assert len(built) == per_tree
    assert cli.build_parser() is not cli.build_parser()


def test_import_builds_no_parser():
    # a cold import, as an imports-only benchmark set-up pays it
    src = os.path.dirname(os.path.dirname(os.path.abspath(idgnn.__file__)))
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = (\n"
            "    lambda self, *a, **k: built.append(self) or init(self, *a, **k))\n"
            "import idgnn.cli\n"
            "print(len(built))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_reused_parser_prints_the_same_bytes(tmp_path, monkeypatch, fresh_parser):
    monkeypatch.setenv("COLUMNS", "80")
    probes = [["--version"], ["--help"], ["wl", "--help"], ["train"]]
    first = [run_captured(argv) for argv in probes]
    assert [code for code, _, _ in first] == [0, 0, 0, 2]
    assert first[3][2].startswith("usage: idgnn train ")
    data = str(tmp_path / "d.jsonl")
    assert run_captured(["generate", "--family", "d-regular", "--n", "8", "--d", "3",
                         "--count", "2", "--seed", "1", "--out", data])[0] == 0
    assert [run_captured(argv) for argv in probes] == first
    # a normal call after a usage error still parses its own flags
    assert run_captured(["features", "--data", data, "--k", "3",
                         "--out", str(tmp_path / "f.jsonl")]) == (
        0, "appended 3 walk-count columns to 2 graphs\n", "")
    proc = run_process(["--help"], env=dict(os.environ, COLUMNS="80"))
    assert (proc.returncode, proc.stdout, proc.stderr) == first[1]
