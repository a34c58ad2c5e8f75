"""Relabeling the nodes of a batch's graphs permutes its embedding rows.

For every variant, flavor and aggregation, each graph of a batch (with
random node features, which follow their nodes) is relabeled by its own
permutation. Plain and id_fast batches embed every node, so row ``v`` of a
graph's embeddings must reappear as row ``perm[v]``. An id_full batch
embeds its anchors in order; relabeling each anchor's center and identity
with its graph must give the same rows, and anchoring every node at itself
must permute them as for the other variants. Sums over neighbors run in
the new ids' order, so rows agree to rounding, not bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn.graph import build_graph, relabel_graph
from idgnn.nn import ModelConfig, forward_batch, init_model, input_features, make_batch
from gradcheck import randomize

SCHEMES = [("gcn", "mean"), ("sage", "sum"), ("sage", "mean"), ("sage", "max"),
           ("gin", "sum")]
FAST_K = 3
REL = 1e-12


@st.composite
def relabeled_batches(draw):
    """One or two graphs of 1 to 9 nodes with two feature columns, a
    permutation of each, and per graph anchors (None, or up to 4 arbitrary
    pairs, whose identities may fall outside the ball)."""
    graphs, perms, anchors = [], [], []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 9))
        nodes = st.integers(0, n - 1)
        feats = np.array(draw(st.lists(st.integers(-3, 3), min_size=2 * n, max_size=2 * n)),
                         dtype=np.float64).reshape(n, 2)
        graphs.append(build_graph(n, draw(st.lists(st.tuples(nodes, nodes), max_size=2 * n)),
                                  feats))
        perms.append(np.array(draw(st.permutations(range(n))), dtype=np.int64))
        anchors.append(draw(st.none() | st.lists(st.tuples(nodes, nodes), min_size=1,
                                                 max_size=4)))
    return graphs, perms, anchors


def embeddings(model, graphs, anchors):
    cfg = model.config
    return forward_batch(model, make_batch(model, graphs, input_features(cfg, graphs),
                                           anchors if cfg.variant == "id_full" else None))


@settings(max_examples=40, deadline=None)
@given(case=relabeled_batches(), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("variant", ["plain", "id_fast", "id_full"])
def test_relabeling_permutes_embedding_rows(case, seed, variant):
    graphs, perms, anchors = case
    relabeled = [relabel_graph(g, p) for g, p in zip(graphs, perms)]
    moved = [None if a is None else [(int(p[u]), int(p[v])) for u, v in a]
             for a, p in zip(anchors, perms)]
    # the relabeled batch's row of each original row: nodes move with their
    # graph's permutation, anchors keep their order
    rows, start = [], 0
    for g, p, a in zip(graphs, perms, anchors):
        count = g.num_nodes if variant != "id_full" or a is None else len(a)
        rows.append(start + (p if variant != "id_full" or a is None else np.arange(count)))
        start += count
    rows = np.concatenate(rows)
    for flavor, aggregation in SCHEMES:
        cfg = ModelConfig(flavor=flavor, variant=variant, num_layers=2, hidden_dim=6,
                          input_dim=2 + (FAST_K if variant == "id_fast" else 0),
                          output_dim=2, aggregation=aggregation, fast_k=FAST_K, seed=0)
        model = init_model(cfg)
        randomize(model, seed)
        H = embeddings(model, graphs, anchors)
        H_moved = embeddings(model, relabeled, moved)
        tol = REL * max(1.0, float(np.abs(H).max()))
        assert H.shape == H_moved.shape
        assert np.abs(H_moved[rows] - H).max(initial=0.0) <= tol, (flavor, aggregation)
