import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn import datasets
from idgnn.datasets import (
    MAX_NODES,
    GraphRecord,
    graph_from_obj,
    graph_to_obj,
    load_graph,
    load_jsonl,
    save_graph,
    save_jsonl,
)
from idgnn.errors import CapabilityError, ParseError
from idgnn.graph import build_graph, build_graphs
from oracles import edge_list, load_jsonl_per_line, neighbor_lists


def test_graph_roundtrip(tmp_path):
    g = build_graph(4, [(0, 1), (2, 3)], node_features=[[1.0], [2.0], [3.0], [4.0]])
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    loaded = load_graph(path)
    assert edge_list(loaded) == edge_list(g)
    assert np.array_equal(loaded.node_features, g.node_features)


def test_jsonl_roundtrip_with_labels(tmp_path):
    g1 = build_graph(3, [(0, 1)])
    g2 = build_graph(2, [(0, 1)])
    path = str(tmp_path / "d.jsonl")
    save_jsonl([GraphRecord(g1, label=2, node_labels=[0, 1, 0]), GraphRecord(g2)], path)
    records = load_jsonl(path)
    assert records[0].label == 2
    assert records[0].node_labels == [0, 1, 0]
    assert records[1].label is None
    assert edge_list(records[1].graph) == ((0, 1),)


def test_obj_roundtrip_without_features():
    g = build_graph(3, [(0, 2)])
    obj = graph_to_obj(g)
    assert "node_features" not in obj
    assert edge_list(graph_from_obj(obj)) == edge_list(g)


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"num_nodes": 2, "edges": []}\nnot json\n')
    with pytest.raises(ParseError) as err:
        load_jsonl(str(path))
    assert "line 2" in str(err.value)


def test_bad_graph_object_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"edges": []}\n')
    with pytest.raises(ParseError) as err:
        load_jsonl(str(path))
    assert "line 1" in str(err.value)


@pytest.mark.parametrize("line", [
    b'{"num_nodes": 2, "edges": [[0, 1]], "label": "a"}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "label": 1e999}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "node_labels": [0, [1]]}',
    b'{"num_nodes": 1e999, "edges": []}',
    b'{"num_nodes": 2, "edges": [[0, 1e999]]}',
    b'{"num_nodes": 2, "edges": []}\xff',
    b'{"num_nodes": 2.9, "edges": []}',
    b'{"num_nodes": 2.0, "edges": []}',
    b'{"num_nodes": 1e20, "edges": []}',
    b'{"num_nodes": true, "edges": []}',
    b'{"num_nodes": "2", "edges": []}',
    b'{"num_nodes": 2, "edges": [[0, 1.7]]}',
    b'{"num_nodes": 2, "edges": [["0", 1]]}',
    b'{"num_nodes": 2, "edges": [[false, true]]}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "label": true}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "label": 1.0}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "node_labels": [0, 1.5]}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "node_labels": [true, 0]}',
    b'{"num_nodes": 2, "edges": [[0, 1]], "node_labels": "01"}',
], ids=["label-text", "label-inf", "node-label-list", "nodes-inf", "edge-inf", "not-utf8",
        "nodes-fraction", "nodes-float", "nodes-1e20", "nodes-bool", "nodes-text",
        "edge-fraction", "edge-text", "edge-bool", "label-bool", "label-float",
        "node-label-fraction", "node-label-bool", "node-labels-text"])
def test_bad_record_reports_line(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"num_nodes": 2, "edges": []}\n' + line + b"\n")
    with pytest.raises(ParseError) as err:
        load_jsonl(str(path))
    assert "line 2" in str(err.value)


def test_save_is_atomic_and_stable(tmp_path):
    g = build_graph(3, [(0, 1), (1, 2)])
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    save_jsonl([GraphRecord(g)], p1)
    save_jsonl([GraphRecord(g)], p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert not [f for f in tmp_path.iterdir() if f.name.startswith(".tmp-")]


def test_failed_save_names_its_path(tmp_path):
    # the error names the destination, not the temp file beside it
    missing = str(tmp_path / "missing" / "a.jsonl")
    with pytest.raises(FileNotFoundError) as err:
        save_jsonl([], missing)
    assert err.value.filename == missing and err.value.filename2 is None
    folder = tmp_path / "folder"
    folder.mkdir()
    with pytest.raises(IsADirectoryError) as err:
        save_jsonl([], str(folder))
    assert err.value.filename == str(folder) and err.value.filename2 is None
    assert sorted(f.name for f in tmp_path.iterdir()) == ["folder"]
    assert list(folder.iterdir()) == []


@pytest.mark.parametrize("labels", [[0, 1], [0, 1, 0, 1], []])
def test_node_labels_length_must_match(tmp_path, labels):
    path = tmp_path / "bad.jsonl"
    obj = {"num_nodes": 3, "edges": [[0, 1]], "node_labels": labels}
    path.write_text('{"num_nodes": 2, "edges": []}\n' + json.dumps(obj) + "\n")
    with pytest.raises(ParseError) as err:
        load_jsonl(str(path))
    assert "line 2" in str(err.value) and "node_labels" in str(err.value)


def test_num_nodes_above_cap_is_capability_error():
    # build_graph allocates per node: the cap is checked before it runs
    assert MAX_NODES >= 10**6
    with pytest.raises(CapabilityError, match="num_nodes"):
        graph_from_obj({"num_nodes": MAX_NODES + 1, "edges": []})


# One malformed line of each kind the reader checks, as a function of a
# valid graph object's node count n.
MALFORMED = {
    "json": lambda n: b'{"num_nodes": 2, "edges": [[0, 1]',
    "endpoint-type": lambda n: json.dumps({"num_nodes": n, "edges": [[0, 1.5]]}).encode(),
    "endpoint-bool": lambda n: json.dumps({"num_nodes": n, "edges": [[True, 0]]}).encode(),
    "negative-count": lambda n: json.dumps({"num_nodes": -1 - n, "edges": []}).encode(),
    "over-cap": lambda n: json.dumps({"num_nodes": MAX_NODES + 1, "edges": [[0, 1]]}).encode(),
    "endpoint-range": lambda n: json.dumps({"num_nodes": n, "edges": [[0, 0], [n, 0]]}).encode(),
    "endpoint-negative": lambda n: json.dumps({"num_nodes": n, "edges": [[0, -2]]}).encode(),
    "endpoint-huge": lambda n: json.dumps({"num_nodes": n, "edges": [[2**70, 0]]}).encode(),
    "ragged-features": lambda n: json.dumps(
        {"num_nodes": 2, "edges": [], "node_features": [[1.0], [1.0, 2.0]]}).encode(),
    "feature-rows": lambda n: json.dumps(
        {"num_nodes": n, "edges": [], "node_features": [[1.0]] * (n + 1)}).encode(),
    "label": lambda n: json.dumps({"num_nodes": n, "edges": [], "label": "a"}).encode(),
    "node-labels": lambda n: json.dumps(
        {"num_nodes": n, "edges": [], "node_labels": [0] * (n + 1)}).encode(),
    "range-and-label": lambda n: json.dumps(
        {"num_nodes": n, "edges": [[0, n + 3]], "label": 1.5}).encode(),
    "missing-edges": lambda n: json.dumps({"num_nodes": n}).encode(),
}


@st.composite
def graph_lines(draw):
    """One valid graph object as a JSONL line: repeated edges, self-loops,
    unsorted and reversed pairs and empty graphs all occur, and features and
    labels are optional."""
    n = draw(st.integers(0, 7))
    ends = st.integers(0, max(n - 1, 0))
    obj = {"num_nodes": n,
           "edges": draw(st.lists(st.lists(ends, min_size=2, max_size=2), max_size=3 * n))
           if n else []}
    if draw(st.booleans()):
        width = draw(st.integers(0, 2))
        obj["node_features"] = [[float(draw(st.integers(-3, 3))) for _ in range(width)]
                                for _ in range(n)]
    if draw(st.booleans()):
        obj["label"] = draw(st.integers(-2, 2))
    if draw(st.booleans()):
        obj["node_labels"] = [draw(st.integers(0, 2)) for _ in range(n)]
    return json.dumps(obj).encode()


def _outcome(read, path):
    try:
        return read(path), None
    except Exception as exc:  # the class and message are what is compared
        return None, (type(exc), str(exc))


def _assert_same_records(got, ref):
    assert len(got) == len(ref)
    for rec, (n, edges, adjacency, feats, label, node_labels) in zip(got, ref):
        g = rec.graph
        assert g.num_nodes == n and edge_list(g) == edges and neighbor_lists(g) == adjacency
        indptr, indices = g.indptr, g.indices
        assert indptr.dtype == indices.dtype == np.int64
        assert not indptr.flags.writeable and not indices.flags.writeable
        np.testing.assert_array_equal(indptr, np.cumsum([0] + [len(a) for a in adjacency]))
        np.testing.assert_array_equal(indices, [w for a in adjacency for w in a])
        if feats is None:
            assert g.node_features is None
        else:
            np.testing.assert_array_equal(g.node_features, feats)
            assert g.node_features.shape == feats.shape
        assert rec.label == label and rec.node_labels == node_labels


@given(lines=st.lists(graph_lines(), max_size=6),
       bad=st.lists(st.tuples(st.sampled_from(sorted(MALFORMED)), st.integers(0, 6)),
                    max_size=2),
       blank=st.booleans())
@settings(max_examples=300, deadline=None)
def test_one_pass_reader_equals_per_line_reader(tmp_path_factory, lines, bad, blank):
    # valid files give the per-line reader's records; files with one or two
    # malformed lines give its exception class and message
    lines = list(lines)
    for kind, at in bad:
        lines.insert(min(at, len(lines)), MALFORMED[kind](at % 4 + 1))
    if blank:
        lines.insert(len(lines) // 2, b"   ")
    path = str(tmp_path_factory.mktemp("jsonl") / "d.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    got, got_error = _outcome(load_jsonl, path)
    ref, ref_error = _outcome(load_jsonl_per_line, path)
    assert got_error == ref_error
    if ref_error is None:
        _assert_same_records(got, ref)


@pytest.mark.parametrize("first, second", [
    ("endpoint-range", "json"), ("endpoint-huge", "json"), ("ragged-features", "over-cap"),
    ("label", "endpoint-range"), ("negative-count", "endpoint-type"),
    ("feature-rows", "label"), ("range-and-label", "json"), ("json", "endpoint-range"),
    ("endpoint-range", "ragged-features"),
])
def test_first_bad_line_wins(tmp_path, first, second):
    valid = json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2]]}).encode()
    path = str(tmp_path / "d.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"\n".join([valid, MALFORMED[first](3), valid, MALFORMED[second](3)]) + b"\n")
    _, got_error = _outcome(load_jsonl, path)
    _, ref_error = _outcome(load_jsonl_per_line, path)
    assert got_error == ref_error
    assert got_error[1].startswith("line 2: ")


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_bad_line_builds_no_graph(tmp_path, monkeypatch, kind):
    # each line is checked completely as it is read: a bad line 2 raises
    # before any graph of the file is built
    calls = []

    def counting_build_graphs(*args):
        calls.append(args)
        return build_graphs(*args)

    monkeypatch.setattr(datasets, "build_graphs", counting_build_graphs)
    valid = json.dumps({"num_nodes": 3, "edges": [[0, 1], [1, 2]]}).encode()
    path = str(tmp_path / "d.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"\n".join([valid, MALFORMED[kind](3), valid]) + b"\n")
    with pytest.raises((ParseError, CapabilityError), match="^line 2: "):
        load_jsonl(path)
    assert calls == []
    with open(path, "wb") as fh:
        fh.write(b"\n".join([valid, valid]) + b"\n")
    assert len(load_jsonl(path)) == 2 and len(calls) == 1
