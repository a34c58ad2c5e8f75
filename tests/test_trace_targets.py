"""Every function the benchmark tracer wraps still exists in idgnn.

``perfbench/tracer.py`` looks up each ``(module, name)`` in ``TRACED`` with
``getattr`` on ``idgnn.<module>``, so deleting or renaming one of them would
break every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"idgnn.{module}"), name))
