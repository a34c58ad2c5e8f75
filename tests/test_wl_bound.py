"""Message passing without identity is bounded by 1-WL, across a batch.

For ``plain`` and ``id_fast`` models of every flavor and aggregation, two
nodes with the same stable 1-WL color of the batch's disjoint union get the
same embedding, to rounding. The initial colors are the nodes' input rows,
so for id_fast they include the closed-walk count columns. Each pair of
graphs runs as one batch through one forward pass without a tape, which is
the sender-free max aggregation path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn.generators import gen_d_regular
from idgnn.graph import Graph, build_graph, union_csr
from idgnn.nn import ModelConfig, forward_batch, init_model, input_features, make_batch
from idgnn.wl import wl_refine
from gradcheck import randomize

SCHEMES = [("gcn", "mean"), ("sage", "sum"), ("sage", "mean"), ("sage", "max"),
           ("gin", "sum")]
FAST_K = 4
REL = 1e-12


@st.composite
def graph_pairs(draw):
    """Two random graphs of 4 to 13 nodes, or two random 3-regular graphs of
    one size, which 1-WL cannot tell apart."""
    if draw(st.booleans()):
        n = draw(st.sampled_from([4, 6, 8, 10, 12]))
        seeds = draw(st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)))
        return [gen_d_regular(n, 3, seed) for seed in seeds]
    graphs = []
    for _ in range(2):
        n = draw(st.integers(4, 13))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        graphs.append(build_graph(n, draw(st.lists(pairs, max_size=3 * n))))
    return graphs


def stable_classes(graphs, x: np.ndarray) -> list[np.ndarray]:
    """The rows of each stable 1-WL color class of the graphs' disjoint
    union, refined from the colors of the input rows ``x``."""
    union = Graph(len(x), *union_csr(graphs))
    init = np.unique(x, axis=0, return_inverse=True)[1].ravel()
    colors = np.array(wl_refine(union, init.tolist()).colors)
    return [np.flatnonzero(colors == c) for c in np.unique(colors)]


@settings(max_examples=60, deadline=None)
@given(graphs=graph_pairs(), seed=st.integers(0, 2**16))
@pytest.mark.parametrize("variant", ["plain", "id_fast"])
def test_embeddings_equal_within_stable_wl_classes(graphs, seed, variant):
    for flavor, aggregation in SCHEMES:
        cfg = ModelConfig(flavor=flavor, variant=variant, num_layers=3, hidden_dim=8,
                          input_dim=1 + FAST_K if variant == "id_fast" else 1,
                          output_dim=2, aggregation=aggregation, fast_k=FAST_K, seed=0)
        model = init_model(cfg)
        randomize(model, seed)
        batch = make_batch(model, graphs, input_features(cfg, graphs))
        H = forward_batch(model, batch)
        tol = REL * max(1.0, float(np.abs(H).max()))
        for rows in stable_classes(graphs, batch.x):
            assert np.abs(H[rows] - H[rows[0]]).max() <= tol, (flavor, aggregation)
