"""What importing each part of idgnn loads, checked in a fresh interpreter.

``import idgnn`` loads no module of the package, so importing one module
loads only what that module imports: ``idgnn.graph`` needs neither scipy
nor the engine (whose import sets the allocator). ``import idgnn.cli``
loads every module the benchmark tracer wraps, since the tracer looks them
up in ``sys.modules`` right after that import. Each module also imports
cold on its own, so no import cycle hides behind another module's order.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_trace_targets import _traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "idgnn").glob("*.py") if p.stem != "__init__")


def _loaded_after(module: str) -> set[str]:
    """The names in ``sys.modules`` after a fresh interpreter imports ``module``."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


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
