import json

import numpy as np
import pytest

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
from idgnn.graph import build_graph


def test_graph_roundtrip(tmp_path):
    g = build_graph(4, [(0, 1), (2, 3)], node_features=[[1.0], [2.0], [3.0], [4.0]])
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded.edges == g.edges
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
    assert records[1].graph.edges == ((0, 1),)


def test_obj_roundtrip_without_features():
    g = build_graph(3, [(0, 2)])
    obj = graph_to_obj(g)
    assert "node_features" not in obj
    assert graph_from_obj(obj).edges == g.edges


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
