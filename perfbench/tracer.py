"""Span and counter recording around idgnn's public functions, from outside.

A Recorder replaces each target function, in every loaded ``idgnn`` module
that holds a reference to it, with a wrapper that appends a span
``[name, start, end, parent]`` to an in-memory list. ``tasks``, ``cli`` and
``expressiveness`` import names directly, so patching only the defining
module would miss most calls. Nothing under ``src/`` changes.

Counters come from public return values and logs only:

- ``graph.ego_nodes`` and ``graph.identity_outside_ball`` from the EgoNets
  that ``extract_ego`` returns;
- ``wl.iso_true`` and ``wl.iso_false`` from ``are_isomorphic`` results;
- ``generators.pairing_restarts`` from the "restarted N times" debug record
  of the ``idgnn.generators`` logger;
- ``expressiveness.regen`` from the reports that ``run_regular_experiment``
  returns.

Every counter adds up over all calls of the round, like the ``.calls``
counts beside it.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import sys
import time

# (module, function) pairs wrapped in a traced run; names are "module.function".
TRACED = (
    ("cli", "main"),
    ("datasets", "load_jsonl"),
    ("datasets", "save_jsonl"),
    ("generators", "gen_d_regular"),
    ("graph", "extract_ego"),
    ("counts", "augment_features"),
    ("counts", "walk_count_features"),
    ("counts", "graph_signature"),
    ("wl", "wl_refine"),
    ("wl", "wl_graph_hash"),
    ("wl", "are_isomorphic"),
    ("expressiveness", "run_regular_experiment"),
    ("expressiveness", "build_nonisomorphic_pool"),
    ("nn", "forward_plain"),
    ("nn", "backward_layers"),
    ("nn", "forward_id_full"),
    ("nn", "backward_id_full"),
    ("nn", "head_logits"),
    ("nn", "head_backward"),
    ("nn", "save_model"),
    ("nn", "load_model"),
    ("optim", "loss_xent"),
    ("optim", "adam_step"),
    ("tasks", "make_spd_task"),
    ("tasks", "make_node_cc_task"),
    ("tasks", "train"),
    ("tasks", "evaluate"),
)

# The one wrapper an untraced run keeps: a span per epoch costs two clock reads.
EPOCH_CLOCK = (("optim", "adam_step"),)

COUNTERS = (
    "graph.ego_nodes",
    "graph.identity_outside_ball",
    "generators.pairing_restarts",
    "wl.iso_true",
    "wl.iso_false",
    "expressiveness.regen",
)

_RESTARTS = re.compile(r"restarted (\d+) times")


class _RestartCounter(logging.Handler):
    def __init__(self, counters: dict):
        super().__init__(logging.DEBUG)
        self.counters = counters

    def emit(self, record: logging.LogRecord) -> None:
        match = _RESTARTS.search(record.getMessage())
        if match:
            self.counters["generators.pairing_restarts"] += int(match.group(1))


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._hooks = {
            "graph.extract_ego": self._count_ego,
            "wl.are_isomorphic": self._count_iso,
            "expressiveness.run_regular_experiment": self._count_regen,
        }

    def _count_ego(self, ego) -> None:
        self.counters["graph.ego_nodes"] += ego.subgraph.num_nodes
        if not any(ego.identity_mask):
            self.counters["graph.identity_outside_ball"] += 1

    def _count_iso(self, result: bool) -> None:
        self.counters["wl.iso_true" if result else "wl.iso_false"] += 1

    def _count_regen(self, report) -> None:
        self.counters["expressiveness.regen"] += report.num_regen_for_nonisomorphism

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (module, function) target wherever idgnn refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "idgnn" or n.startswith("idgnn."))]
        for module_name, fn_name in targets:
            original = getattr(sys.modules["idgnn." + module_name], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def count_restarts(self) -> None:
        """Turn on the generator's debug record and count its restarts."""
        logger = logging.getLogger("idgnn.generators")
        logger.setLevel(logging.DEBUG)
        logger.addHandler(_RestartCounter(self.counters))

    def epoch_seconds(self, first_span: int = 0) -> list[float]:
        """Gaps between consecutive adam_step ends from ``first_span`` on.

        Each epoch makes exactly one adam_step call, so within one train
        call these gaps are epoch times; the first epoch, which follows
        prepare, has no previous step and is left out.
        """
        ends = [s[2] for s in self.spans[first_span:] if s[0] == "optim.adam_step"]
        return [b - a for a, b in zip(ends, ends[1:])]

    def summary(self) -> dict:
        """Calls and self time per span name, counters, and prepare time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for module_name, fn_name in TRACED:
            out[f"{module_name}.{fn_name}.calls"] = 0
            out[f"{module_name}.{fn_name}.self_s"] = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child[i]
        out.update(self.counters)
        out["tasks.prepare_s"] = self._prepare_seconds()
        return out

    def _prepare_seconds(self) -> float:
        """Sum over train spans of the time from train start to its first
        forward span."""
        total = 0.0
        for i, (name, start, end, _) in enumerate(self.spans):
            if name != "tasks.train":
                continue
            for other in self.spans[i + 1:]:
                if other[1] > end:
                    break
                if other[0] in ("nn.forward_id_full", "nn.forward_plain"):
                    total += other[1] - start
                    break
        return total

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
