"""What importing each part of idgnn loads, checked in a fresh interpreter.

``import idgnn`` loads no module of the package, so importing one module
loads only what that module imports: ``idgnn.graph`` needs neither scipy
nor the engine (whose import sets the allocator). ``import idgnn.cli``
loads every module the benchmark tracer wraps, since the tracer looks them
up in ``sys.modules`` right after that import. Each module also imports
cold on its own, so no import cycle hides behind another module's order.

scipy is imported by the first function that builds a sparse matrix, so
importing ``idgnn.cli``, ``idgnn.counts`` or ``idgnn.nn`` does not load it,
nor does a CLI call that runs neither the walk-count kernel nor a model:
``generate``, ``wl hash``, ``report``, ``--help`` and a usage error. A
``features`` or ``train`` call does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from idgnn.cli import main
from idgnn.datasets import load_jsonl, save_graph
from test_trace_targets import _traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "idgnn").glob("*.py") if p.stem != "__init__")


# Runs cli.main on the arguments after -c in a fresh interpreter, then prints
# its exit code and the names in sys.modules as the last line of stdout.
MAIN = """import json, sys
from idgnn.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _last_line(code: str, *args: str) -> str:
    """The last stdout line of a fresh interpreter running ``code`` on ``args``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def _loaded_after(module: str) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter imports ``module``."""
    return set(json.loads(_last_line(
        f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))")))


def _loaded_after_main(argv: list[str]) -> tuple[int, set[str]]:
    """The exit code of ``cli.main(argv)`` in a fresh interpreter, and the
    names in ``sys.modules`` after it."""
    code, loaded = json.loads(_last_line(MAIN, *argv))
    return code, set(loaded)


def test_package_root_loads_no_module():
    assert {m for m in _loaded_after("idgnn") if m.startswith("idgnn.")} == set()


def test_graph_loads_neither_scipy_nor_the_engine():
    loaded = _loaded_after("idgnn.graph")
    assert "scipy.sparse" not in loaded and "idgnn.nn" not in loaded


def test_cli_loads_every_traced_module():
    loaded = _loaded_after("idgnn.cli")
    wanted = {f"idgnn.{m}" for m, _ in _traced()} | {"idgnn.optim"}
    assert wanted <= loaded


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_cold(module):
    assert f"idgnn.{module}" in _loaded_after(f"idgnn.{module}")


@pytest.mark.parametrize("module", ["idgnn.cli", "idgnn.counts", "idgnn.nn"])
def test_import_loads_no_scipy(module):
    assert "scipy" not in _loaded_after(module)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small dataset, one of its graphs and a train report, made in this
    process."""
    folder = tmp_path_factory.mktemp("inputs")
    data, graph, report = (str(folder / name) for name in ("d.jsonl", "g.json", "r.json"))
    assert main(["generate", "--family", "small-world", "--n", "12", "--k", "4", "--p",
                 "0.3", "--count", "4", "--seed", "1", "--out", data]) == 0
    save_graph(load_jsonl(data)[0].graph, graph)
    assert main(["train", "--data", data, "--task", "node-cc", "--variant", "id-fast",
                 "--epochs", "2", "--hidden", "4", "--seed", "0", "--out",
                 str(folder / "m.ckpt"), "--report", report]) == 0
    return {"data": data, "graph": graph, "report": report, "folder": str(folder)}


@pytest.mark.parametrize("argv, exit_code", [
    (["generate", "--family", "d-regular", "--n", "8", "--d", "3", "--count", "2",
      "--seed", "0", "--out", "{folder}/gen.jsonl"], 0),
    (["wl", "hash", "{graph}"], 0),
    (["report", "{report}", "--out", "{folder}/summary.csv"], 0),
    (["--help"], 0),
    (["train", "--data", "{data}"], 2),
], ids=["generate", "wl-hash", "report", "help", "usage-error"])
def test_light_commands_load_no_scipy(inputs, argv, exit_code):
    code, loaded = _loaded_after_main([a.format(**inputs) for a in argv])
    assert code == exit_code and "scipy" not in loaded


@pytest.mark.parametrize("argv", [
    ["features", "--data", "{data}", "--k", "3", "--out", "{folder}/aug.jsonl"],
    ["train", "--data", "{data}", "--task", "node-cc", "--variant", "id-fast", "--epochs",
     "1", "--hidden", "4", "--seed", "0", "--out", "{folder}/m1.ckpt"],
], ids=["features", "train"])
def test_engine_commands_load_scipy(inputs, argv):
    code, loaded = _loaded_after_main([a.format(**inputs) for a in argv])
    assert code == 0 and "scipy.sparse" in loaded
