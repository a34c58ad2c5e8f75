"""Synthetic supervised tasks, splits, training loops, and metrics.

Three task kinds: per-node clustering-coefficient classification (10 bins on
[0, 1]), shortest-path-distance classification on sampled node pairs (5-way:
distances 1..4 and >= 5), and per-graph mean clustering-coefficient
classification (10 bins on [0, 0.5], matching the generator sweep range).
Clustering labels come from one walk-count kernel call, binned by one
np.searchsorted: bins are half-open, the top one closed, outliers clamped.
The caller chooses the width of that call (at least 3, the lengths the
labels read), and each graph keeps its count matrix on its LabeledGraph, so
a clustering task holds one count matrix per graph: an id_fast model whose
fast_k is within that width reads its input columns from it (_prepare)
rather than run the kernel again.

Edge-task wiring follows the variant: id_full scores a pair through the
conditional embedding of u with identity at v and a linear head, while plain
and id_fast concatenate two independent node embeddings into the pair MLP.
id_fast inputs carry log(1 + count) closed-walk columns (nn.input_features).

SPD labels come from one multi-source BFS per split (graph.bfs_blocks)
from every node of every graph, stopped at 4 hops: pairs farther apart and
disconnected pairs share the ">= 5" class. Class pools are arrays of pair
numbers in np.triu_indices order, read off one stable argsort per graph.

Each split is prepared once as one nn.Batch: the disjoint union of its
graphs (plain, id_fast) or of the ego nets of its labelled units (id_full),
with the batch row of every node, center or pair. Training and evaluation
then run one forward pass, and training one backward pass, per epoch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .counts import clustering_from_counts, walk_count_features_many, zero_counts
from .errors import InputError, NumericError
from .generators import child_seed
from .graph import Graph, bfs_blocks
from .nn import (
    Batch,
    Model,
    backward_layers,
    edge_pair_backward,
    edge_pair_score,
    forward_batch,
    head_backward,
    head_logits,
    input_features,
    make_batch,
    zero_grads,
)
from .optim import AdamState, adam_step, loss_xent

TASK_KINDS = ("node_cc", "edge_spd", "graph_cc")

NODE_CC_BINS = tuple(i / 10 for i in range(11))
GRAPH_CC_BINS = tuple(i / 20 for i in range(11))
SPD_CLASSES = 5


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    num_classes: int
    bin_edges: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise InputError(f"unknown task kind {self.kind!r}")


TASK_SPECS = {
    "node_cc": TaskSpec(kind="node_cc", num_classes=10, bin_edges=NODE_CC_BINS),
    "edge_spd": TaskSpec(kind="edge_spd", num_classes=SPD_CLASSES),
    "graph_cc": TaskSpec(kind="graph_cc", num_classes=10, bin_edges=GRAPH_CC_BINS),
}


@dataclass
class LabeledGraph:
    graph: Graph
    node_labels: np.ndarray | None = None
    graph_label: int | None = None
    pairs: list[tuple[int, int, int]] | None = None  # (u, v, class)
    walks: np.ndarray | None = None  # clustering tasks: closed-walk counts


@dataclass
class TaskData:
    spec: TaskSpec
    items: list[LabeledGraph]
    skipped: list[str] = field(default_factory=list)  # warnings for the caller to log


@dataclass
class TaskSplit:
    spec: TaskSpec
    train: list[LabeledGraph]
    val: list[LabeledGraph]


@dataclass
class TrainReport:
    config: dict
    task: str
    wiring: str
    epochs: int
    lr: float
    seed: int
    train_losses: list[float]
    final_val_accuracy: float
    num_parameters: int
    bin_edges: list[float]


def _bins(spec: TaskSpec, values) -> np.ndarray:
    return np.searchsorted(spec.bin_edges[1:-1], values, side="right")


def _clustering(graphs, k: int) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every node's clustering coefficient, graph after graph, and the rows
    where graphs 2, 3, ... start; and each graph's closed-walk counts of
    lengths 1..k, k >= 3, from which one kernel call reads them."""
    if k < 3:
        raise InputError(f"clustering labels need walk lengths up to 3, got k={k}")
    walks = walk_count_features_many(graphs, k)
    cuts = np.cumsum([len(c) for c in walks[:-1]], dtype=np.int64)
    rows = np.concatenate([zero_counts(0, 3)] + [c[:, :3] for c in walks])
    return clustering_from_counts(rows), cuts, walks


def make_node_cc_task(graphs, k: int = 3) -> TaskData:
    """Label every node with the bin of its clustering coefficient; each
    graph keeps its closed-walk counts of lengths 1..k."""
    spec = TASK_SPECS["node_cc"]
    cc, cuts, walks = _clustering(graphs, k)
    return TaskData(spec, [LabeledGraph(graph=g, node_labels=y, walks=c) for g, y, c
                           in zip(graphs, np.split(_bins(spec, cc), cuts), walks)])


def make_graph_cc_task(graphs, k: int = 3) -> TaskData:
    """Label every graph with the bin of its mean clustering coefficient:
    the node coefficients summed in node order over the node count, or 0
    for a graph without nodes. Each graph keeps its closed-walk counts of
    lengths 1..k."""
    spec = TASK_SPECS["graph_cc"]
    cc, cuts, walks = _clustering(graphs, k)
    means = [sum(c.tolist()) / c.size if c.size else 0.0 for c in np.split(cc, cuts)]
    return TaskData(spec, [LabeledGraph(graph=g, graph_label=label, walks=c) for g, label, c
                           in zip(graphs, _bins(spec, means).tolist(), walks)])


def _spd_classes(graphs) -> tuple[np.ndarray, np.ndarray]:
    """The distance class of every pair u < v of every graph, graph after
    graph and each graph's pairs in np.triu_indices order, and the index
    where each graph's pairs end. Pairs farther than SPD_CLASSES - 1 hops,
    or not connected, are all in the last class, so one search from every
    node of every graph (graph.bfs_blocks) stops at that many hops."""
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    counts = sizes * (sizes - 1) // 2
    classes = np.full(counts.sum(), SPD_CLASSES - 1, dtype=np.int8)
    n = np.repeat(sizes, sizes)
    u = np.arange(n.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # pair (u, v), u < v, is pair u * (2n - u - 1) / 2 + v - u - 1 of its graph
    base = np.repeat(np.cumsum(counts) - counts, sizes) + u * (2 * n - u - 1) // 2 - u - 1
    w = int(sizes.max(initial=0))
    for lo, cells, depth in bfs_blocks(graphs, np.arange(n.size), SPD_CLASSES - 1):
        src, v = np.divmod(cells, w)
        src += lo
        upper = v > u[src]
        classes[base[src[upper]] + v[upper]] = depth[upper] - 1
    return classes, np.cumsum(counts)


def make_spd_task(graphs, pairs_per_graph: int, seed: int) -> TaskData:
    """Sample node pairs per graph, labeled by thresholded shortest-path
    distance (classes: 1, 2, 3, 4, >=5), stratified per class where possible.

    The pairs u < v of a graph are numbered in np.triu_indices order, and a
    class's pool lists its pair numbers in ascending order. Each class
    draws its share without replacement from its pool; pairs still missing
    are drawn from what the classes left over, in class order, and the
    chosen pairs are returned in ascending (u, v) order. A class that a
    graph lacks but wants pairs from is named in the task's ``skipped``.
    """
    if pairs_per_graph < 1:
        raise InputError("pairs_per_graph must be >= 1")
    spec = TASK_SPECS["edge_spd"]
    classes, ends = _spd_classes(graphs)
    quota, extra = divmod(pairs_per_graph, SPD_CLASSES)
    wants = [quota + (1 if c < extra else 0) for c in range(SPD_CLASSES)]
    none = np.zeros(0, dtype=np.int64)
    triu, items, skipped = {}, [], []
    for gi, g in enumerate(graphs):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, gi)))
        n = g.num_nodes
        if n not in triu:
            triu[n] = np.triu_indices(n, 1)
        u, v = triu[n]
        cls = classes[ends[gi] - u.size:ends[gi]]
        # the pools, class after class, each in ascending order
        order = np.argsort(cls, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(cls, minlength=SPD_CLASSES))])
        chosen = [none]
        for c, want in enumerate(wants):
            pool = order[bounds[c]:bounds[c + 1]]
            if not pool.size:
                if want:
                    skipped.append(f"graph {gi}: no pairs at distance class {c}, class skipped")
                continue
            idx = rng.choice(pool.size, size=min(want, pool.size), replace=False)
            chosen.append(pool[idx])
        picked = np.concatenate(chosen)
        taken = np.zeros(cls.size, dtype=bool)
        taken[picked] = True
        rest = order[~taken[order]]
        short = pairs_per_graph - picked.size
        if short > 0 and rest.size:
            idx = rng.choice(rest.size, size=min(short, rest.size), replace=False)
            picked = np.concatenate([picked, rest[idx]])
        picked = np.sort(picked)
        items.append(LabeledGraph(graph=g, pairs=list(zip(
            u[picked].tolist(), v[picked].tolist(), cls[picked].tolist()))))
    return TaskData(spec, items, skipped)


def check_split(fraction: float, seed: int, count: int) -> None:
    """InputError unless split can cut ``count`` items at ``fraction`` with
    ``seed`` and leave both sides nonempty. A task has one item per graph,
    so a caller can check before it builds the task."""
    if not 0.0 < fraction < 1.0:
        raise InputError(f"fraction must be in (0, 1), got {fraction}")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")
    if int(round(fraction * count)) in (0, count):
        raise InputError(f"split of {count} items at {fraction} leaves a side empty")


def split(task: TaskData, fraction: float, seed: int) -> TaskSplit:
    """Deterministic shuffled graph-level split; no graph straddles sides."""
    check_split(fraction, seed, len(task.items))
    order = np.random.Generator(np.random.PCG64(seed)).permutation(len(task.items))
    cut = int(round(fraction * len(task.items)))
    train = [task.items[i] for i in order[:cut]]
    val = [task.items[i] for i in order[cut:]]
    return TaskSplit(task.spec, train, val)


# ---------------------------------------------------------------------------
# model wiring


def task_wiring(spec: TaskSpec, model: Model) -> str:
    if spec.kind == "edge_spd":
        return "conditional" if model.config.variant == "id_full" else "pair_concat"
    return "node_head" if spec.kind == "node_cc" else "sum_pool_head"


@dataclass
class _Prepared:
    """One split as one batch, built once before training: the labels of its
    units and how their logits read the batch's row embeddings."""

    batch: Batch
    labels: np.ndarray
    pairs: np.ndarray | None = None   # pair_concat: rows of (u, v)
    starts: np.ndarray | None = None  # graph task: first row of each graph


def _prepare(model: Model, spec: TaskSpec, items) -> _Prepared:
    graphs = [item.graph for item in items]
    pairs = [item.pairs or [] for item in items]
    conditional = task_wiring(spec, model) == "conditional"
    anchors = [[(u, v) for u, v, _ in p] for p in pairs] if conditional else None
    walks = [item.walks for item in items]
    if any(w is None or w.shape[1] < model.config.fast_k for w in walks):
        walks = None  # the kernel runs at fast_k
    xs = input_features(model.config, graphs, walks)
    batch = make_batch(model, graphs, xs, anchors)
    if spec.kind == "node_cc":
        labels = [np.zeros(0, dtype=np.int64)] + [item.node_labels for item in items]
        return _Prepared(batch, np.concatenate(labels))
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    if spec.kind == "graph_cc":
        if not sizes.all():
            raise InputError("graph readout needs every graph to have a node")
        labels = np.array([item.graph_label for item in items], dtype=np.int64)
        return _Prepared(batch, labels, starts=starts)
    labels = np.array([c for p in pairs for _, _, c in p], dtype=np.int64)
    if conditional:
        return _Prepared(batch, labels)
    rows = [(s + u, s + v) for s, p in zip(starts, pairs) for u, v, _ in p]
    return _Prepared(batch, labels, pairs=np.array(rows, dtype=np.int64).reshape(-1, 2))


def _forward(model: Model, p: _Prepared, record: bool):
    """Logits of every labelled unit from one forward pass over the batch,
    plus the caches backward needs."""
    cache: dict = {"tape": [] if record else None, "pair": []}
    H = forward_batch(model, p.batch, cache["tape"])
    if p.pairs is not None:
        logits = edge_pair_score(model, H[p.pairs[:, 0]], H[p.pairs[:, 1]],
                                 cache["pair"])
        return logits, cache
    cache["Z"] = H if p.starts is None else np.add.reduceat(H, p.starts, axis=0)
    return head_logits(model, cache["Z"]), cache


def _backward(model: Model, p: _Prepared, cache: dict, G_logits: np.ndarray,
              grads: dict) -> None:
    """Accumulate the gradients of one forward pass in one backward pass."""
    n_rows = p.batch.layers[-1].n
    if p.pairs is not None:
        G_u, G_v = edge_pair_backward(model, cache["pair"][0], G_logits, grads)
        G_H = np.zeros((n_rows, model.config.hidden_dim))
        np.add.at(G_H, p.pairs, np.stack([G_u, G_v], axis=1))
    else:
        G_H = head_backward(model, cache["Z"], G_logits, grads)
        if p.starts is not None:
            G_H = np.repeat(G_H, np.diff(p.starts, append=n_rows), axis=0)
    backward_layers(model, cache["tape"], G_H, grads)


def check_classes(model: Model, spec: TaskSpec) -> None:
    """Raise InputError unless the model's output width is the task's class
    count."""
    if model.config.output_dim != spec.num_classes:
        raise InputError(
            f"model output_dim {model.config.output_dim} != task classes "
            f"{spec.num_classes}"
        )


def predictions(model: Model, spec: TaskSpec, items) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (logits, labels) over every labeled unit in the items; raises
    InputError if the model's output width is not the task's class count."""
    check_classes(model, spec)
    p = _prepare(model, spec, items)
    if not p.labels.size:
        raise InputError("no labeled items to evaluate")
    return _forward(model, p, record=False)[0], p.labels


def _unchecked_floats():
    """Silences numpy overflow and invalid warnings; finite checks decide."""
    return np.errstate(over="ignore", invalid="ignore")


def evaluate(model: Model, spec: TaskSpec, items) -> float:
    """Argmax accuracy; ties break toward the lowest class index. Raises
    NumericError if a logit is not finite (finite parameters can still
    overflow)."""
    with _unchecked_floats():
        logits, labels = predictions(model, spec, items)
    if not np.isfinite(logits).all():
        raise NumericError("evaluation produced non-finite logits")
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == labels))


def check_schedule(epochs: int, lr: float) -> None:
    """InputError unless train can run ``epochs`` steps at rate ``lr``."""
    if epochs < 0:
        raise InputError("epochs must be nonnegative")
    if not (np.isfinite(lr) and lr > 0):
        raise InputError(f"lr must be positive and finite, got {lr}")


def train(model: Model, task: TaskSplit, epochs: int, lr: float = 0.01) -> TrainReport:
    """Full-batch Adam training; deterministic given the model seed and task.

    The train split is prepared once as one batch; each epoch is one forward
    pass, one backward pass over the summed gradients of every labelled
    unit, and one optimizer step. Raises InputError unless lr is positive
    and finite, and NumericError if the loss or a trained parameter goes
    non-finite.
    """
    check_schedule(epochs, lr)
    spec = task.spec
    check_classes(model, spec)
    prepared = _prepare(model, spec, task.train)
    if epochs and not prepared.labels.size:
        raise InputError("no labeled items in the training split")
    params = model.params
    state = AdamState()
    losses: list[float] = []
    with _unchecked_floats():
        for _ in range(epochs):
            logits, cache = _forward(model, prepared, record=True)
            loss, G_logits = loss_xent(logits, prepared.labels)
            losses.append(loss)
            grads = zero_grads(model)
            _backward(model, prepared, cache, G_logits, grads)
            del cache  # free this epoch's tape before the next forward
            adam_step(params, grads, state, lr=lr)
    if not all(np.isfinite(arr).all() for arr in params.values()):
        raise NumericError("training left non-finite parameters")
    accuracy = evaluate(model, spec, task.val)
    return TrainReport(
        config=asdict(model.config),
        task=spec.kind,
        wiring=task_wiring(spec, model),
        epochs=epochs,
        lr=lr,
        seed=model.config.seed,
        train_losses=losses,
        final_val_accuracy=accuracy,
        num_parameters=model.num_parameters(),
        bin_edges=list(spec.bin_edges),
    )
