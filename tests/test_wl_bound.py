"""Message passing without identity is bounded by 1-WL, across a batch, and
identity-aware message passing goes beyond it.

For ``plain`` and ``id_fast`` models of every flavor and aggregation, two
nodes with the same stable 1-WL color of the batch's disjoint union get the
same embedding, to rounding. The initial colors are the nodes' input rows,
so for id_fast they include the closed-walk count columns. Each pair of
graphs runs as one batch through one forward pass without a tape, which is
the sender-free max aggregation path.

Beyond the bound: two such nodes whose closed-walk counts
(``walk_count_features``, lengths 1..K) differ get
different self-anchored id_full embeddings under random parameters, for the
four schemes that sum over neighbors (gcn, sage sum and mean, gin). Max
aggregation reads the set of neighbor states, not their multiset, so it can
miss a count difference whatever the parameters; one such pair is pinned.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idgnn.counts import walk_count_features
from idgnn.generators import gen_d_regular
from idgnn.graph import Graph, build_graph, union_csr
from idgnn.nn import ModelConfig, forward_batch, init_model, input_features, make_batch
from idgnn.wl import wl_refine
from gradcheck import randomize

SCHEMES = [("gcn", "mean"), ("sage", "sum"), ("sage", "mean"), ("sage", "max"),
           ("gin", "sum")]
FAST_K = 4
REL = 1e-12
# id_full models of K layers are compared on closed walks of length <= K
K = 4


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


def closed_walks(g: Graph, v: int) -> np.ndarray:
    """Closed walks at v of lengths 1..K, by the production kernel. A closed
    walk of length <= K never leaves v's K//2-ball, so these are the counts
    of v's ego net too."""
    return walk_count_features(g, K)[v]


def self_anchored(flavor, aggregation, seed, graphs, anchors=None) -> np.ndarray:
    """Embeddings of a K-layer id_full model with random parameters, each
    node anchored at itself unless ``anchors`` says otherwise."""
    # at width 8 a few draws zero, through ReLU, every unit that tells a
    # pair apart; the next seed separates those pairs
    cfg = ModelConfig(flavor=flavor, variant="id_full", num_layers=K, hidden_dim=16,
                      input_dim=1, output_dim=2, aggregation=aggregation, seed=0)
    model = init_model(cfg)
    randomize(model, seed)
    return forward_batch(model, make_batch(model, graphs, input_features(cfg, graphs),
                                           anchors))


@settings(max_examples=120, deadline=None)
@given(graphs=graph_pairs(), seed=st.integers(0, 2**16))
def test_identity_separates_closed_walk_counts(graphs, seed):
    walks = np.array([closed_walks(g, v) for g in graphs for v in range(g.num_nodes)])
    x = np.ones((len(walks), 1))
    pairs = [(a, b) for rows in stable_classes(graphs, x) for a, b in combinations(rows, 2)
             if (walks[a] != walks[b]).any()]
    if not pairs:
        return
    for flavor, aggregation in SCHEMES:
        if aggregation == "max":
            continue  # see test_max_aggregation_misses_a_closed_walk_count
        H = self_anchored(flavor, aggregation, seed, graphs)
        tol = REL * max(1.0, float(np.abs(H).max()))
        for a, b in pairs:
            assert np.abs(H[a] - H[b]).max() > tol, (flavor, aggregation, a, b)


def test_max_aggregation_misses_a_closed_walk_count():
    """Nodes 0 and 1 of this 3-regular graph share one triangle, and node 1
    lies on one more 4-cycle. At every depth the two see the same set of
    neighbor states, only with other multiplicities, so a sage max model
    cannot tell them apart, for any parameters."""
    g = build_graph(8, [(0, 1), (0, 4), (0, 6), (1, 2), (1, 6), (2, 3), (2, 5), (3, 4),
                        (3, 7), (4, 7), (5, 6), (5, 7)])
    assert closed_walks(g, 0).tolist() == [0, 3, 2, 15]
    assert closed_walks(g, 1).tolist() == [0, 3, 2, 17]
    for seed in range(5):
        H = self_anchored("sage", "max", seed, [g], [[(0, 0), (1, 1)]])
        assert np.abs(H[0] - H[1]).max() <= REL * max(1.0, float(np.abs(H).max()))
        # a sum over neighbors does tell them apart
        H = self_anchored("sage", "sum", seed, [g], [[(0, 0), (1, 1)]])
        assert np.abs(H[0] - H[1]).max() > REL * max(1.0, float(np.abs(H).max()))
