"""Identity-aware GNN toolkit.

Analytic walk-count constructions (closed-walk features, clustering
recovery, reachability propagation), a 1-WL lab with exact isomorphism
checking, seeded synthetic graph generators, and a desk-scale trainable
message-passing engine with plain, identity-full, and identity-fast
variants.
"""

__version__ = "0.1.0"

from .counts import (
    CountMatrix,
    augment_features,
    clustering_from_counts,
    count_signatures,
    graph_signature,
    identity_walk_counts,
    reachability,
    walk_count_features,
    walk_count_features_many,
)
from .errors import CapabilityError, InputError, NumericError, ParseError
from .expressiveness import ExperimentReport, certify_gnn_blindness, run_regular_experiment
from .generators import (
    GeneratorSpec,
    child_seed,
    gen_d_regular,
    gen_dataset,
    gen_scale_free,
    gen_small_world,
)
from .graph import EgoNet, Graph, build_graph, build_graphs, extract_ego, relabel_graph
from .nn import (
    Model,
    ModelConfig,
    edge_pair_score,
    forward_id_full,
    forward_plain,
    init_model,
    load_model,
    make_walk_count_model,
    save_model,
)
from .optim import AdamState, adam_step, loss_xent
from .tasks import (
    TaskSpec,
    TrainReport,
    evaluate,
    make_graph_cc_task,
    make_node_cc_task,
    make_spd_task,
    split,
    train,
)
from .wl import WlColoring, are_isomorphic, wl_equivalent, wl_graph_hash, wl_refine
