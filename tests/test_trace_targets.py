"""Every function the benchmark tracer wraps still exists in idgnn, and
every counter hook still reads what its function returns.

``perfbench/tracer.py`` looks up each ``(module, name)`` in ``TRACED`` with
``getattr`` on ``idgnn.<module>``, so deleting or renaming one of them would
break every traced benchmark run. Its ``Recorder`` derives counters from
return values (ego nets, isomorphism results, experiment reports), so a
change to those types could break a traced run too, or leave its counters
at 0.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from idgnn.expressiveness import run_regular_experiment
from idgnn.generators import gen_d_regular
from idgnn.graph import build_graph, extract_ego, relabel_graph
from idgnn.wl import are_isomorphic

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced():
    return _tracer().TRACED


@pytest.mark.parametrize("module, name", _traced())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"idgnn.{module}"), name))


def _recorded(name, fn, *args):
    """The counters of a fresh Recorder after one wrapped call of ``fn``."""
    rec = _tracer().Recorder()
    rec._wrap(name, fn)(*args)
    assert [span[0] for span in rec.spans] == [name]
    return rec.counters


def test_ego_hook_counts_nodes_and_identities_outside_the_ball():
    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    counters = _recorded("graph.extract_ego", extract_ego, path, 1, 1)
    assert counters["graph.ego_nodes"] == 3
    assert counters["graph.identity_outside_ball"] == 0
    counters = _recorded("graph.extract_ego", extract_ego, path, 0, 1, 3)
    assert counters["graph.ego_nodes"] == 2
    assert counters["graph.identity_outside_ball"] == 1


def test_isomorphism_hook_counts_each_result():
    g = gen_d_regular(10, 3, 0)
    same = _recorded("wl.are_isomorphic", are_isomorphic, g, relabel_graph(g, range(9, -1, -1)))
    assert (same["wl.iso_true"], same["wl.iso_false"]) == (1, 0)
    # the two 3-regular graphs on 6 nodes: K3,3 has no triangle, the prism two
    k33 = build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
    prism = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)])
    differ = _recorded("wl.are_isomorphic", are_isomorphic, k33, prism)
    assert (differ["wl.iso_true"], differ["wl.iso_false"]) == (0, 1)


def test_regen_hook_adds_the_report_count():
    counters = _recorded("expressiveness.run_regular_experiment", run_regular_experiment,
                         6, 3, 2, [3], 0)
    assert counters["expressiveness.regen"] == 6
