"""Every script under ``scripts/`` imports and parses ``--help``, and a
malformed list flag or a value the library rejects exits 2 with one stderr
line. ``run_trend_experiments.py`` also runs both of its tasks for one
epoch, ``run_regular_differentiation.py`` a two-seed sweep of small pools,
and ``output_digests.py`` its whole command set, twice, and once more
against the digests checked in as ``tests/output_digests.txt``.

No other test imports the scripts, so this is what notices when one of them
uses a public name that the package no longer has.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")


@pytest.mark.parametrize("script, flag, value", [
    ("run_regular_differentiation.py", "--k-list", "3,x"),
    ("run_regular_differentiation.py", "--seeds", "3-1"),
    ("run_trend_experiments.py", "--seeds", "0,x"),
])
def test_script_bad_list_exit_2(script, flag, value):
    # both fail while parsing, before any graph is generated
    proc = run_script(ROOT / "scripts" / script, flag, value)
    assert proc.returncode == 2
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1 and "error:" in lines[0] and flag in lines[0]


@pytest.mark.parametrize("script, args, message", [
    ("run_regular_differentiation.py", ["--k-list", "0"], "k_list"),
    ("run_trend_experiments.py", ["--task", "node-cc", "--seeds", "-1"], "seed"),
])
def test_script_rejected_value_exit_2(script, args, message):
    # the library rejects the value before any training starts
    proc = run_script(ROOT / "scripts" / script, *args)
    assert proc.returncode == 2
    lines = proc.stderr.strip().split("\n")
    assert len(lines) == 1 and "error:" in lines[0] and message in lines[0]


def test_trend_experiments_one_epoch():
    # both tasks, node-cc labels included, at one seed and one epoch
    proc = run_script(ROOT / "scripts" / "run_trend_experiments.py",
                      "--seeds", "0", "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header == "task,flavor,variant,seed,accuracy"
    assert [row.split(",")[:4] for row in rows] == [
        ["node-cc", "sage", "plain", "0"], ["node-cc", "sage", "id_fast", "0"],
        ["edge-spd", "gcn", "plain", "0"], ["edge-spd", "gcn", "id_full", "0"]]
    assert all(0.0 <= float(row.split(",")[4]) <= 1.0 for row in rows)


def test_regular_differentiation_seed_sweep():
    # one row per setting and seed, then each column's mean/min/max over them
    proc = run_script(ROOT / "scripts" / "run_regular_differentiation.py",
                      "--seeds", "0-1", "--count", "5")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().split("\n")
    assert header.split("\t") == ["setting", "seed", "wl", "K=3", "K=4", "K=5", "K=6"]
    cells = [row.split("\t") for row in rows]
    assert [c[:2] for c in cells] == [[f"n={n},d={d}", seed] for n, d in ((64, 4), (40, 5), (96, 6))
                                      for seed in ("0", "1", "mean/min/max")]
    for first, second, stats in zip(cells[0::3], cells[1::3], cells[2::3]):
        for a, b, stat in zip(first[2:7], second[2:7], stats[2:]):
            mean, low, high = map(float, stat.split("/"))
            a, b = float(a), float(b)
            assert 0.0 <= a <= 1.0 and 0.0 <= b <= 1.0
            assert (low, high) == (min(a, b), max(a, b)) and abs(mean - (a + b) / 2) < 1e-3


def test_output_digests_smoke():
    # the same text twice: every command is seeded and runs at one BLAS
    # thread; each failing command prints one stderr line, and each
    # successful train writes its checkpoint, its report and a manifest
    first, second = (run_script(ROOT / "scripts" / "output_digests.py") for _ in range(2))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    blocks = [block.splitlines() for block in first.stdout.split("$ idgnn ")[1:]]
    codes = [int(block[1].removeprefix("exit ")) for block in blocks]
    assert len(blocks) == 108 and codes.count(0) == 102
    for block, code in zip(blocks, codes):
        stderr = [line for line in block if line.startswith("stderr | ")]
        written = [line.split("  ")[1] for line in block[3:] if not line.startswith("stderr")]
        if code:
            assert len(stderr) == 1 and not written
        elif block[0].startswith("train") and "--report" in block[0]:
            assert [name.rsplit(".", 1)[1] for name in sorted(written)] == [
                "ckpt", "json", "json"]


def test_output_digests_equal_the_checked_in_file():
    # the byte-identity promise: a fresh run, at one BLAS thread, prints the
    # digests of tests/output_digests.txt; its "#" header names the versions
    # that made the file
    want = (ROOT / "tests" / "output_digests.txt").read_text().splitlines()
    proc = run_script(ROOT / "scripts" / "output_digests.py")
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    headers = [[line for line in lines if line.startswith("#")] for lines in (want, got)]
    want, got = ([line for line in lines if not line.startswith("#")] for lines in (want, got))
    for i, (a, b) in enumerate(zip(want, got)):
        if a != b:
            command = next(line for line in reversed(want[:i + 1]) if line.startswith("$ "))
            pytest.fail(f"first difference in {command!r}: {a!r} became {b!r} "
                        f"(file made with {headers[0]}, run with {headers[1]})")
    assert len(got) == len(want)
