"""Graph JSON / JSONL serialization.

A graph object is ``{"num_nodes": n, "edges": [[u, v], ...],
"node_features": [[...], ...]}`` where ``node_features`` is optional.
Datasets are JSONL, one graph object per line, with optional per-graph
``"label"`` and per-node ``"node_labels"`` fields. Node counts, endpoints
and labels must be JSON integers: ``true``, ``2.0`` or ``"1"`` is rejected.
A node count above MAX_NODES is a CapabilityError. Each line is checked
completely as it is read (_graph_fields), so the first bad line raises
before any graph is built; load_jsonl then builds every graph of the file
with one graph.build_graphs call, which cannot fail.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CapabilityError, ParseError
from .graph import Graph, _check_count, _check_node, _feature_matrix, build_graph, build_graphs

# graphs are built with per-node arrays: reading one graph of 10^6 nodes
# takes 0.03 s and 98 MB of peak RSS without edges, and 2.3 s and 710 MB
# with 2 x 10^6 edges, most of it parsing the JSON edge list
MAX_NODES = 1_000_000


@dataclass
class GraphRecord:
    graph: Graph
    label: int | None = None
    node_labels: list[int] | None = None


def graph_to_obj(g: Graph) -> dict:
    rows = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    upper = rows < g.indices  # each edge once, as (u, v) with u < v, ascending
    obj = {"num_nodes": g.num_nodes,
           "edges": np.column_stack((rows[upper], g.indices[upper])).tolist()}
    if g.node_features is not None:
        obj["node_features"] = g.node_features.tolist()
    return obj


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else ParseError (booleans too)."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, got {value!r}")
    return value


def _graph_fields(obj: dict) -> tuple[int, list, np.ndarray | None]:
    """The node count, edge list and feature matrix of a graph object, once
    it is checked completely, in this order: the node count's type and the
    cap, every endpoint's type, a negative count, the first out-of-range
    endpoint in edge order, the features. The graph itself is not built."""
    n, edges = _json_int(obj["num_nodes"], "num_nodes"), obj["edges"]
    if n > MAX_NODES:
        raise CapabilityError(f"num_nodes {n} is above the limit of {MAX_NODES}")
    for u, v in edges:
        # one fused test per edge; only a failure pays for the pass that
        # raises the first failed check, in the order above
        if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
            for a, b in edges:
                if type(a) is not int or type(b) is not int:
                    raise ParseError(f"edge endpoints must be integers, got {[a, b]!r}")
            _check_count(n)
            for w in chain.from_iterable(edges):
                _check_node(n, w, "edge endpoint")
    _check_count(n)
    return n, edges, _feature_matrix(n, obj.get("node_features"))


_BAD_OBJECT = (KeyError, TypeError, ValueError, OverflowError)


def graph_from_obj(obj: dict) -> Graph:
    try:
        n, edges, feats = _graph_fields(obj)
    except _BAD_OBJECT as exc:
        raise ParseError(f"bad graph object: {exc}") from exc
    return build_graph(n, edges, feats)


def record_to_obj(rec: GraphRecord) -> dict:
    obj = graph_to_obj(rec.graph)
    if rec.label is not None:
        obj["label"] = rec.label
    if rec.node_labels is not None:
        obj["node_labels"] = list(rec.node_labels)
    return obj


def _labels(obj: dict, num_nodes: int, line: int) -> tuple[int | None, list[int] | None]:
    label = obj.get("label")
    node_labels = obj.get("node_labels")
    try:
        label = None if label is None else _json_int(label, "label")
        node_labels = (None if node_labels is None
                       else [_json_int(x, "node label") for x in node_labels])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad label: {exc}", line) from None
    if node_labels is not None and len(node_labels) != num_nodes:
        raise ParseError(f"{len(node_labels)} node_labels for {num_nodes} nodes", line)
    return label, node_labels


def dumps_canonical(obj) -> str:
    # fixed separators and no key sorting: dicts are built in canonical
    # field order, so identical inputs serialize byte-identically
    return json.dumps(obj, separators=(",", ":"), allow_nan=False)


def atomic_write(path: str, data: str | bytes) -> None:
    """Write ``data``, text or bytes, via a temp file in the same directory,
    then rename. An OSError names ``path``, not the temp file, and leaves no
    temp file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def save_graph(g: Graph, path: str) -> None:
    atomic_write(path, dumps_canonical(graph_to_obj(g)) + "\n")


def load_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        try:
            obj = json.loads(fh.read())
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc.msg}", exc.lineno) from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"invalid UTF-8 in {path}: {exc.reason}") from None
    return graph_from_obj(obj)


def save_jsonl(records, path: str) -> None:
    lines = [dumps_canonical(record_to_obj(rec)) for rec in records]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def load_jsonl(path: str) -> list[GraphRecord]:
    """The records of a JSONL dataset. Each line is checked completely as
    it is read (JSON, the graph object by _graph_fields, then its labels),
    so an error names the first bad line, with the message reading the file
    line by line would give, and no graph is built. A file that passes is
    built in one build_graphs call."""
    sizes, counts, ends, feats, labels = [], [], [], [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", lineno) from exc
            except UnicodeDecodeError as exc:
                raise ParseError(f"invalid UTF-8: {exc.reason}", lineno) from None
            try:
                n, edges, f = _graph_fields(obj)
            except _BAD_OBJECT as exc:
                raise ParseError(f"bad graph object: {exc}", lineno) from exc
            except CapabilityError as exc:
                raise CapabilityError(f"line {lineno}: {exc}") from exc
            labels.append(_labels(obj, n, lineno))
            sizes.append(n)
            counts.append(len(edges))
            ends.extend(chain.from_iterable(edges))
            feats.append(f)
    flat = np.fromiter(ends, dtype=np.int64, count=len(ends))
    graphs = build_graphs(sizes, counts, flat[0::2], flat[1::2], feats)
    return [GraphRecord(g, *lab) for g, lab in zip(graphs, labels)]
