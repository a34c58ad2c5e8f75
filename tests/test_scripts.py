"""Every script under ``scripts/`` imports and parses ``--help``, and a
malformed list flag or a value the library rejects exits 2 with one stderr
line. ``run_trend_experiments.py`` also runs both of its tasks for one
epoch.

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
