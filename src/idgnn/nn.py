"""Trainable message-passing engine with manual reverse-mode gradients.

Three layer flavors share one heterogeneous message stage: every node's
outgoing message goes through the msg0 linear map, except at the nodes of
the boolean identity mask, whose messages go through msg1. Only id_full
models have msg1 tensors; plain and id_fast models send every message
through msg0, as id_full does when the mask is empty.

A model is its config and one parameter store, ``Model.params``: every
trainable tensor keyed by its checkpoint name (``layers.0.msg0_weight``,
``head.weight``, ``pair.w1``, ...) in the order of _layout(config). The
gradient dicts use the same keys, and layers read their tensors under them.

Flavors:
  gcn   h' = ReLU(A_norm @ M)  with symmetric normalization over the closed
        neighborhood (self loop included)
  sage  m = ReLU(msg(h)); h' = ReLU(U @ concat(AGG(m), h))  with AGG one of
        sum / mean / max over open neighborhoods
  gin   z = (1 + eps) * h + sum(msg(h)); h' = ReLU(W2 @ ReLU(W1 @ z))

Each flavor has one layer forward and one layer backward, run over a Batch:
the disjoint union of whole graphs (plain, id_fast) or of ego nets
(id_full, identity mask true at each ego's identity node). Messages are per
sender node, so aggregation is a product with the union's scipy CSR
adjacency (sum, mean, gin) or its normalized form (gcn), and max
aggregation reduces, per degree k, the k x rows table of the neighbor
messages of the rows of degree k over its first axis (_GraphOps.buckets). Whole-graph batches
run every layer on all rows, laid out by graph.union_csr. id_full layers
run on receptive fields: of K layers, layer l reads rows within K - l + 1
hops of their ego's center and writes rows within K - l, since the
center's output reads no other row. An id_full batch is built without a
Graph per ego: one multi-source BFS per split (graph.ego_union) yields the
rows, depths, identity flags and CSR of all of the split's ego nets as
numpy arrays. An ego row more than l hops from its ego's identity row and
truncated rows computes its node's whole-graph value at layer l, so each
graph is also laid out once as whole-graph rows, and reads of such ego
rows go to those: each identity-free row is computed once per graph, not
once per ego (make_batch). The layer code is the same for both kinds of
row. A split of a task is one batch: one forward and one backward per
epoch. forward_plain is the batch of one graph and forward_id_full the
batch of one anchor, so every id_full embedding runs on make_batch's ego
net of radius num_layers.

All tensors are float64. A forward pass asked for a tape appends to it the
cache of each layer, which holds that layer's operators; backward walks the
tape and returns exact gradients for every parameter (max aggregation routes
ties to the first maximizer in list order, ReLU uses subgradient 0 at 0).
Max aggregation builds its table of first maximizers, which only backward
reads, under a tape only; a pass without one writes the same maxima.

Importing the module sets glibc's allocator, process-wide, to keep freed
blocks for reuse across epochs (_keep_freed_memory). It does not load
scipy: the functions that build a sparse matrix import it on first use.

Checkpoint layout: 8-byte magic ``IDGNNMDL``, little-endian uint32 header
length, UTF-8 JSON header holding the config and a parameter index table
(name and shape, in order), then the concatenated little-endian float64
parameter blob.
"""

from __future__ import annotations

import ctypes
import json
import math
import struct
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from .counts import with_count_columns
from .datasets import atomic_write
from .errors import InputError
from .graph import Graph, ego_union, union_csr

FLAVORS = ("gcn", "sage", "gin")
VARIANTS = ("plain", "id_full", "id_fast")
AGGREGATIONS = ("sum", "mean", "max")

_FLAVOR_DEFAULT_AGG = {"gcn": "mean", "sage": "max", "gin": "sum"}

CHECKPOINT_MAGIC = b"IDGNNMDL"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc malloc.h


def _keep_freed_memory() -> None:
    """Serve blocks of up to 32 MiB from glibc's heap and trim it only past
    256 MiB, process-wide; by default each large numpy temporary is mapped
    and unmapped on its own, so every epoch faults its pages in afresh.
    Does nothing where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()


@dataclass(frozen=True)
class ModelConfig:
    flavor: str
    variant: str
    num_layers: int
    hidden_dim: int
    input_dim: int
    output_dim: int
    aggregation: str = ""
    fast_k: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise InputError(f"unknown flavor {self.flavor!r}")
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        if self.num_layers < 1:
            raise InputError("num_layers must be >= 1")
        if min(self.hidden_dim, self.input_dim, self.output_dim) < 1:
            raise InputError("all dimensions must be >= 1")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        if self.variant == "id_fast" and not 1 <= self.fast_k <= self.input_dim:
            raise InputError("id_fast requires 1 <= fast_k <= input_dim")
        if not self.aggregation:
            object.__setattr__(
                self, "aggregation", _FLAVOR_DEFAULT_AGG[self.flavor]
            )
        if self.aggregation not in AGGREGATIONS:
            raise InputError(f"unknown aggregation {self.aggregation!r}")
        if self.flavor == "gin" and self.aggregation != "sum":
            raise InputError("gin always uses sum aggregation")
        if self.flavor == "gcn" and self.aggregation != "mean":
            raise InputError("gcn uses its symmetric-normalized mean scheme")


@dataclass
class Model:
    """A config and its parameter store (see the module docstring)."""

    config: ModelConfig
    params: dict[str, np.ndarray]

    def num_parameters(self) -> int:
        return sum(arr.size for arr in self.params.values())


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def _layout(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, in Model.params order,
    computed without allocating anything."""
    h, out = config.hidden_dim, config.output_dim
    layout = []
    for i in range(config.num_layers):
        d_in = config.input_dim if i == 0 else h
        d_msg = d_in if config.flavor == "gin" else h
        msgs = ("msg0", "msg1") if config.variant == "id_full" else ("msg0",)
        shapes = [(f"{m}_{kind}", shape) for m in msgs
                  for kind, shape in (("weight", (d_msg, d_in)), ("bias", (d_msg,)))]
        if config.flavor == "sage":
            shapes += [("update_weight", (h, h + d_in)), ("update_bias", (h,))]
        elif config.flavor == "gin":
            shapes += [("update_weight", (h, d_in)), ("update_bias", (h,)),
                       ("mlp2_weight", (h, h)), ("mlp2_bias", (h,)), ("gin_eps", ())]
        layout += [(f"layers.{i}.{name}", shape) for name, shape in shapes]
    return layout + [("head.weight", (out, h)), ("head.bias", (out,)),
                     ("pair.w1", (h, 2 * h)), ("pair.b1", (h,)),
                     ("pair.w2", (out, h)), ("pair.b2", (out,))]


def init_model(config: ModelConfig) -> Model:
    """Seeded fan-in-scaled uniform initialization, U(-1/sqrt(fan_in), +).

    Weights are the 2-D tensors, drawn in layout order with the column count
    as fan-in. Biases start at zero and the GIN epsilon at zero (trainable).
    The same config and seed always produce bit-identical parameters.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    return Model(config, {
        name: _uniform(rng, shape, shape[1]) if len(shape) == 2 else np.zeros(shape)
        for name, shape in _layout(config)})


# ---------------------------------------------------------------------------
# forward / backward


class _GraphOps:
    """Operators of one layer over a disjoint union, built once per batch:
    the layer reads ``n_in`` rows and writes ``n`` rows.

    ``deg`` and ``nbr`` are the CSR of the written rows: each one's degree
    and their concatenated ascending neighbor lists, as input positions.
    ``deg_in`` holds the degrees of the rows read (``deg`` when every row
    is written), ``identity`` their identity mask (all false unless given)
    and ``keep`` the input position each written row reads as itself (None
    when every row is written); ``trim`` builds such a layer. In an id_full
    layer, ``nbr`` and ``keep`` may point at a whole-graph row in place of
    an ego row of the same node, so ``keep`` may repeat (see make_batch).

    ``dst`` names the written row of each ``nbr`` entry. Max aggregation
    reads ``buckets``, built from these arrays on first use; sum, mean, gin
    and gcn use the n x n_in scipy CSR ``A`` and ``A_gcn``, likewise built
    on first use, and their transposes in backward. Whole-graph batches
    share one _GraphOps across their layers, so each is built once.
    """

    def __init__(self, deg: np.ndarray, nbr: np.ndarray,
                 identity: np.ndarray | None = None,
                 deg_in: np.ndarray | None = None, keep: np.ndarray | None = None):
        self.n = n = len(deg)
        self.deg, self.nbr = deg, nbr
        self.deg_in = deg if deg_in is None else deg_in
        self.n_in = len(self.deg_in)
        self.identity = np.zeros(self.n_in, dtype=bool) if identity is None else identity
        self.keep = keep
        self.dst = np.repeat(np.arange(n), deg)
        self.inv_deg = np.where(deg > 0, 1.0 / np.maximum(deg, 1.0), 0.0)

    def trim(self, rows_out: np.ndarray, read: np.ndarray,
             order: np.ndarray) -> tuple[_GraphOps, np.ndarray]:
        """The operators of a layer that writes the union rows ``rows_out``,
        in that order, and reads row ``read[r]`` wherever a written row
        reads row r, a neighbor or itself; and the rows it reads, in the
        order of the permutation ``order``. Every list keeps its order, so
        sums run in list order and max ties go to the first sender in it."""
        deg = self.deg[rows_out]
        offsets = (np.cumsum(self.deg) - self.deg)[rows_out] - (np.cumsum(deg) - deg)
        nbr = read[self.nbr[np.repeat(offsets, deg) + np.arange(deg.sum())]]
        keep = read[rows_out]
        seen = np.zeros(self.n, dtype=bool)
        seen[nbr] = seen[keep] = True
        rows_in = order[seen[order]]
        pos = np.zeros(self.n, dtype=np.int64)
        pos[rows_in] = np.arange(rows_in.size)
        return (_GraphOps(deg, pos[nbr], self.identity[rows_in], self.deg[rows_in],
                          pos[keep]), rows_in)

    @cached_property
    def buckets(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """For each distinct nonzero degree k, ascending: the written rows
        of degree k and their k x rows table of neighbors, slot by slot, so
        column r holds row r's ascending list."""
        starts = np.cumsum(self.deg) - self.deg
        plan = []
        for k in np.unique(self.deg[self.deg > 0]):
            rows = np.flatnonzero(self.deg == k)
            plan.append((rows, self.nbr[starts[rows] + np.arange(k)[:, None]]))
        return plan

    @cached_property
    def A(self):
        import scipy.sparse as sp

        indptr = np.concatenate([[0], np.cumsum(self.deg)])
        return sp.csr_matrix((np.ones(self.nbr.size), self.nbr, indptr),
                             shape=(self.n, self.n_in))

    @cached_property
    def A_gcn(self):
        """D^-1/2 (A + I) D^-1/2 with D the closed-neighborhood degrees,
        built straight as CSR: one stable sort of the entries by row, then
        input position, which follows node order (see make_batch), so the
        self loop sums at its node's place."""
        import scipy.sparse as sp

        d_out = 1.0 / np.sqrt(self.deg + 1.0)
        d_in = 1.0 / np.sqrt(self.deg_in + 1.0)
        loops = np.arange(self.n)
        rows = np.concatenate([self.dst, loops])
        cols = np.concatenate([self.nbr, loops if self.keep is None else self.keep])
        order = np.argsort(rows * self.n_in + cols, kind="stable")
        rows, cols = rows[order], cols[order]
        indptr = np.concatenate([[0], np.cumsum(self.deg + 1)])
        return sp.csr_matrix((d_out[rows] * d_in[cols], cols, indptr),
                             shape=(self.n, self.n_in))


def _agg_max(M: np.ndarray, ops: _GraphOps, senders: bool = True):
    """Per written row, the max over neighbor rows of M (0 at isolated
    nodes), and the sending neighbor of each maximum (-1 at isolated nodes)
    when ``senders`` is true, else None: only backward reads the senders,
    so a pass without a tape builds no sender table. Ties go to the first
    sender in list order, the neighbor of lowest node id: an id_full list
    mixes ego rows and whole-graph rows, which make_batch orders by node.
    A NaN message makes its column's maximum NaN."""
    n, d = ops.n, M.shape[1]
    S = np.zeros((n, d))
    src = np.full((n, d), -1, dtype=np.int64) if senders else None
    for rows, table in ops.buckets:
        T = M[table]
        top = T.max(axis=0)
        S[rows] = top
        if src is None:
            continue
        # The first not-below slot carries the largest of the weights k..1
        # (np.argmax over an axis makes one call per row and column). Not
        # below rather than equal, so a NaN maximum still picks a sender.
        k = table.shape[0]
        w = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None, None]
        first = k - (~(T < top) * w).max(axis=0)
        # first has w's narrow dtype: widen it before scaling by the row count
        r = len(rows)
        src[rows] = table.ravel()[first * np.int64(r) + np.arange(r)[:, None]]
    return S, src


def _agg_max_backward(G_S: np.ndarray, src: np.ndarray, n: int) -> np.ndarray:
    d = G_S.shape[1]
    valid = src >= 0
    flat = (src * d + np.arange(d))[valid]
    return np.bincount(flat, weights=G_S[valid], minlength=n * d).reshape(n, d)


def _messages(p: dict, pre: str, H: np.ndarray, identity: np.ndarray):
    """Messages of layer ``pre``: msg0, and msg1 at identity rows if it exists."""
    M = _update(H, p[pre + "msg0_weight"], p[pre + "msg0_bias"])
    if pre + "msg1_weight" in p:
        M[identity] = _update(H[identity], p[pre + "msg1_weight"], p[pre + "msg1_bias"])
    return M


def _messages_backward(p, pre, H, identity, G_M, grads):
    split = pre + "msg1_weight" in p
    G0 = G_M
    if split:
        G0 = G_M.copy()
        G0[identity] = 0.0
    grads[pre + "msg0_weight"] += G0.T @ H
    grads[pre + "msg0_bias"] += G0.sum(axis=0)
    G_H = G0 @ p[pre + "msg0_weight"]
    if split:
        G1 = G_M[identity]
        grads[pre + "msg1_weight"] += G1.T @ H[identity]
        grads[pre + "msg1_bias"] += G1.sum(axis=0)
        G_H[identity] += G1 @ p[pre + "msg1_weight"]
    return G_H


def _update(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """X @ W.T + b over the rows a layer reads or writes. numpy sends a
    one-row product to BLAS gemv, which sums in another order than the gemm
    of a multi-row product, so a lone row (the center of a one-ego batch,
    or the one row a trimmed layer reads) runs doubled and rounds as it
    would among the rows of a whole graph."""
    if len(X) == 1:
        return (np.concatenate([X, X]) @ W.T + b)[:1]
    return X @ W.T + b


def _kept(H: np.ndarray, ops: _GraphOps) -> np.ndarray:
    """The rows of H that the layer writes."""
    return H if ops.keep is None else H[ops.keep]


def _add_kept(G_H: np.ndarray, ops: _GraphOps, G_kept: np.ndarray) -> np.ndarray:
    """Scatter-add the gradient of _kept(H, ops) into the gradient of H;
    the rows of a repeated ``keep`` position add up."""
    if ops.keep is None:
        G_H += G_kept
    else:
        import scipy.sparse as sp

        G_H += sp.csc_matrix((np.ones(ops.n), ops.keep, np.arange(ops.n + 1)),
                             shape=(ops.n_in, ops.n)) @ G_kept
    return G_H


def _layer_forward(model: Model, i: int, ops: _GraphOps, H: np.ndarray,
                   record: bool) -> tuple[np.ndarray, dict]:
    """Output rows of layer i, and the cache its backward reads; a layer
    that records no tape leaves out what only backward needs, the sender
    table of max aggregation."""
    config, p, pre = model.config, model.params, f"layers.{i}."
    cache: dict = {"ops": ops, "H": H}
    M = _messages(p, pre, H, ops.identity)
    if config.flavor == "gcn":
        S = ops.A_gcn @ M
        cache["S"] = S
        return np.maximum(S, 0.0), cache
    if config.flavor == "sage":
        cache["M"] = M
        Mr = np.maximum(M, 0.0)
        if config.aggregation == "sum":
            S = ops.A @ Mr
        elif config.aggregation == "mean":
            S = ops.inv_deg[:, None] * (ops.A @ Mr)
        else:
            S, cache["src"] = _agg_max(Mr, ops, senders=record)
        Z = np.concatenate([S, _kept(H, ops)], axis=1)
        P = _update(Z, p[pre + "update_weight"], p[pre + "update_bias"])
        cache.update(Z=Z, P=P)
        return np.maximum(P, 0.0), cache
    # gin
    S = ops.A @ M
    eps = float(p[pre + "gin_eps"])
    Z = (1.0 + eps) * _kept(H, ops) + S
    P1 = _update(Z, p[pre + "update_weight"], p[pre + "update_bias"])
    Hd = np.maximum(P1, 0.0)
    P2 = _update(Hd, p[pre + "mlp2_weight"], p[pre + "mlp2_bias"])
    cache.update(Z=Z, P1=P1, Hd=Hd, P2=P2)
    return np.maximum(P2, 0.0), cache


def _layer_backward(model: Model, i: int, cache: dict,
                    G_out: np.ndarray, grads: dict) -> np.ndarray:
    """Gradient of layer i with respect to the rows it read; aggregation
    backpropagates through the transposed operators."""
    config, p, pre = model.config, model.params, f"layers.{i}."
    ops, H = cache["ops"], cache["H"]
    if config.flavor == "gcn":
        G_S = G_out * (cache["S"] > 0.0)
        G_M = ops.A_gcn.T @ G_S
        return _messages_backward(p, pre, H, ops.identity, G_M, grads)
    if config.flavor == "sage":
        G_P = G_out * (cache["P"] > 0.0)
        grads[pre + "update_weight"] += G_P.T @ cache["Z"]
        grads[pre + "update_bias"] += G_P.sum(axis=0)
        G_Z = G_P @ p[pre + "update_weight"]
        d_out = config.hidden_dim
        G_S = G_Z[:, :d_out]
        if config.aggregation == "sum":
            G_Mr = ops.A.T @ G_S
        elif config.aggregation == "mean":
            G_Mr = ops.A.T @ (ops.inv_deg[:, None] * G_S)
        else:
            G_Mr = _agg_max_backward(G_S, cache["src"], ops.n_in)
        G_M = G_Mr * (cache["M"] > 0.0)
        G_H = _messages_backward(p, pre, H, ops.identity, G_M, grads)
        return _add_kept(G_H, ops, G_Z[:, d_out:])
    # gin
    G_P2 = G_out * (cache["P2"] > 0.0)
    grads[pre + "mlp2_weight"] += G_P2.T @ cache["Hd"]
    grads[pre + "mlp2_bias"] += G_P2.sum(axis=0)
    G_Hd = G_P2 @ p[pre + "mlp2_weight"]
    G_P1 = G_Hd * (cache["P1"] > 0.0)
    grads[pre + "update_weight"] += G_P1.T @ cache["Z"]
    grads[pre + "update_bias"] += G_P1.sum(axis=0)
    G_Z = G_P1 @ p[pre + "update_weight"]
    eps = float(p[pre + "gin_eps"])
    grads[pre + "gin_eps"] += np.sum(G_Z * _kept(H, ops))
    G_M = ops.A.T @ G_Z
    G_H = _messages_backward(p, pre, H, ops.identity, G_M, grads)
    return _add_kept(G_H, ops, (1.0 + eps) * G_Z)


def _check_features(config: ModelConfig, g: Graph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape != (g.num_nodes, config.input_dim):
        raise InputError(
            f"feature matrix must be {g.num_nodes} x {config.input_dim}, "
            f"got {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InputError("feature matrix contains non-finite values")
    return x


def input_features(config: ModelConfig, graphs: list[Graph],
                   walks: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Model inputs for each graph: its node features, or all-ones columns
    for a graph without them, followed for id_fast by fast_k log(1 + count)
    closed-walk columns (counts.with_count_columns). These read the first
    fast_k columns of ``walks``, the graphs' count matrices, when given (a
    clustering task's, see tasks), and run the kernel otherwise.

    Raw counts grow geometrically with the walk length and, without a
    normalization layer (deliberately absent, for determinism), drown the
    constant base features and stall training. The log transform is
    injective and applied only here; everything analytic stays in raw
    integer counts.
    """
    fast = config.fast_k if config.variant == "id_fast" else 0
    bases = []
    for g in graphs:
        x = g.node_features
        if x is None:
            x = np.ones((g.num_nodes, config.input_dim - fast))
        if x.shape[1] + fast != config.input_dim:
            raise InputError(
                f"model expects input_dim={config.input_dim} but task features "
                f"have width {x.shape[1] + fast}"
            )
        bases.append(x)
    return with_count_columns(graphs, bases, fast, np.log1p, walks) if fast else bases


@dataclass
class Batch:
    """Disjoint union of graphs (plain, id_fast) or of ego nets (id_full)
    with stacked inputs, built once and run in one forward pass.

    ``layers[l]`` holds the operators of layer l + 1: whole-graph batches
    share one across every layer, while id_full layers run on receptive
    fields and read whole-graph rows where no identity reaches (see
    make_batch). Input row i is row ``nodes[i]`` of the stacked inputs of
    the graphs. The last layer writes one row per embedded node, in order.
    """

    x: np.ndarray
    layers: list[_GraphOps]
    nodes: np.ndarray


def make_batch(model: Model, graphs, xs, anchors=None) -> Batch:
    """One batch embedding nodes of ``graphs``, whose inputs are ``xs``.

    Plain and id_fast models embed every node of every graph, in order.
    id_full models embed each ``(center, identity)`` anchor of graph i
    (``anchors[i]``; by default every node anchored at itself) through its
    own ego net of radius K = num_layers; an identity outside the ball
    leaves that ego's mask empty. All ego nets come from one ego_union
    over the graphs.

    An ego row's layer-l value equals its node's whole-graph value when the
    row lies more than l hops, within its ego, from the identity row and
    from every truncated row (a depth-K row with fewer neighbors than its
    node). One level sweep over the egos' CSR finds these hops. Every read
    of such a row, by a neighbor (``nbr``) or by itself (``keep``, which may
    then repeat), goes to the whole-graph row of its node instead: the
    graphs are laid out once more as whole-graph rows (graph.union_csr).
    From the centers down, each layer writes the ego and whole-graph rows
    the next one reads. A kept whole-graph row stands for ego rows of its
    node that are dropped, so no layer reads or writes more rows than the
    ego nets alone would. Rows are ordered by node, so every neighbor list
    ascends and sums run in the order of the ego nets.
    """
    cfg = model.config
    xs = [_check_features(cfg, g, x) for g, x in zip(graphs, xs)]
    x = np.concatenate([np.zeros((0, cfg.input_dim))] + xs)
    indptr, nbr = union_csr(graphs)
    whole = _GraphOps(np.diff(indptr), nbr)
    if cfg.variant != "id_full":
        return Batch(x, [whole] * cfg.num_layers, np.arange(whole.n))
    k = cfg.num_layers
    egos = ego_union(graphs, anchors, k, (indptr, nbr))
    ego, depth, node = _GraphOps(egos.deg, egos.nbr, egos.identity), egos.depth, egos.parent
    e = ego.n
    far = ~(ego.identity | (depth == k) & (ego.deg < whole.deg[node]))
    # per row of the union of ego rows and whole-graph rows: the hops from
    # the nearest identity or truncated ego row, up to k (0 on whole-graph
    # rows, which read themselves)
    hops = np.zeros(e + whole.n, dtype=np.int64)
    for _ in range(k):
        hops[:e] += far
        far[ego.dst[~far[ego.nbr]]] = False
    union = _GraphOps(np.concatenate([ego.deg, whole.deg]),
                      np.concatenate([ego.nbr, e + whole.nbr]),
                      np.concatenate([ego.identity, np.zeros(whole.n, dtype=bool)]))
    own = np.arange(union.n)
    node = np.concatenate([node, own[:whole.n]])
    order = np.argsort(node, kind="stable")
    layers, rows = [], np.flatnonzero(depth == 0)
    for l in range(k - 1, -1, -1):
        layer, rows = union.trim(rows, np.where(hops <= l, own, e + node), order)
        layers.insert(0, layer)
    return Batch(x[node[rows]], layers, node[rows])


def zero_grads(model: Model) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in model.params.items()}


def forward_batch(model: Model, batch: Batch, tape: list | None = None) -> np.ndarray:
    """Embeddings of the batch's rows from one forward pass over the union;
    each layer's cache is appended to ``tape`` when given. Without a tape
    the layers skip what only backward reads; the embeddings are the same
    bits either way."""
    H = batch.x
    for i, ops in enumerate(batch.layers):
        H, cache = _layer_forward(model, i, ops, H, tape is not None)
        if tape is not None:
            tape.append(cache)
    return H


def forward_plain(model: Model, g: Graph, x) -> np.ndarray:
    """All-node embeddings from homogeneous message passing (plain and
    id_fast variants; id_fast differs only in its augmented inputs)."""
    if model.config.variant == "id_full":
        raise InputError("id_full models embed nodes through forward_id_full")
    return forward_batch(model, make_batch(model, [g], [x]))


def backward_layers(model: Model, tape: list[dict], G_H: np.ndarray,
                    grads: dict[str, np.ndarray] | None = None):
    """Backpropagate a gradient of the last layer's rows through the layer
    caches that forward_batch recorded in ``tape``.

    Accumulates into ``grads`` (created zeroed when not given) and returns
    (grads, gradient with respect to the input features).
    """
    if grads is None:
        grads = zero_grads(model)
    G = np.asarray(G_H, dtype=np.float64)
    for i in range(model.config.num_layers - 1, -1, -1):
        G = _layer_backward(model, i, tape[i], G, grads)
    return grads, G


def forward_id_full(model: Model, g: Graph, center: int, identity_at: int,
                    x) -> np.ndarray:
    """Embedding of ``center`` with the identity color at ``identity_at``:
    the one-anchor batch of make_batch, so heterogeneous message passing on
    the ego net of radius num_layers, whose inputs are the rows of ``x``.
    An identity outside the ball runs the plain scheme on the ego net."""
    if model.config.variant != "id_full":
        raise InputError(f"variant {model.config.variant!r} is not id_full")
    return forward_batch(model, make_batch(model, [g], [x], [[(center, identity_at)]]))[0]


def backward_id_full(model: Model, tape: list[dict], g_center: np.ndarray,
                     grads: dict[str, np.ndarray] | None = None):
    """Backpropagate the center gradient of a one-anchor id_full pass;
    returns (grads, gradient with respect to the batch's input rows)."""
    return backward_layers(model, tape, np.reshape(g_center, (1, -1)), grads)


def head_logits(model: Model, h: np.ndarray) -> np.ndarray:
    """Linear classifier head applied to one embedding or a matrix of them."""
    return h @ model.params["head.weight"].T + model.params["head.bias"]


def head_backward(model: Model, h: np.ndarray, G_logits: np.ndarray,
                  grads: dict[str, np.ndarray]):
    """Accumulate the head's gradients for the embedding rows ``h``;
    returns the gradient of ``h``."""
    grads["head.weight"] += G_logits.T @ h
    grads["head.bias"] += G_logits.sum(axis=0)
    return G_logits @ model.params["head.weight"]


def edge_pair_score(model: Model, h_u: np.ndarray, h_v: np.ndarray,
                    cache_out: list | None = None) -> np.ndarray:
    """Class logits for ordered pairs: concat, then the two-layer pair head.

    Row i of ``h_u`` and ``h_v`` is one pair; 1-D inputs score one pair.
    The concatenation is ordered, so swapping u and v generally changes the
    logits.
    """
    h_u = np.asarray(h_u, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_u.shape != h_v.shape:
        raise InputError(f"pair dims differ: {h_u.shape} vs {h_v.shape}")
    p = model.params
    z = np.concatenate([h_u, h_v], axis=-1)
    p1 = z @ p["pair.w1"].T + p["pair.b1"]
    hid = np.maximum(p1, 0.0)
    logits = hid @ p["pair.w2"].T + p["pair.b2"]
    if cache_out is not None:
        cache_out.append({"z": z, "p1": p1, "hid": hid})
    return logits


def edge_pair_backward(model: Model, cache: dict, G_logits: np.ndarray,
                       grads: dict[str, np.ndarray]):
    """Accumulate the pair head's gradients for a matrix of scored pairs;
    returns the gradients of h_u and h_v."""
    grads["pair.w2"] += G_logits.T @ cache["hid"]
    grads["pair.b2"] += G_logits.sum(axis=0)
    G_p1 = (G_logits @ model.params["pair.w2"]) * (cache["p1"] > 0.0)
    grads["pair.w1"] += G_p1.T @ cache["z"]
    grads["pair.b1"] += G_p1.sum(axis=0)
    G_z = G_p1 @ model.params["pair.w1"]
    d = G_z.shape[1] // 2
    return G_z[:, :d], G_z[:, d:]


# ---------------------------------------------------------------------------
# explicit walk-counting weights


def make_walk_count_model(k: int) -> Model:
    """A k-layer id_full sum-aggregation model whose center embedding is the
    closed-walk count vector (lengths 1..k) of the ego center.

    Layer 1 zeroes its input and emits the identity indicator into slot 1;
    later layers shift the count vector down one slot and inject the
    indicator. All values stay nonnegative, so the ReLUs never clip and the
    float64 arithmetic is exact integer arithmetic at desk scale. Run it as
    forward_id_full(model, g, v, v, x), any x of width k, for node v's counts.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    config = ModelConfig(
        flavor="sage", variant="id_full", num_layers=k, hidden_dim=k,
        input_dim=k, output_dim=k, aggregation="sum", seed=0,
    )
    model = init_model(config)
    shift = np.zeros((k, k))
    for j in range(1, k):
        shift[j, j - 1] = 1.0
    e1 = np.zeros(k)
    e1[0] = 1.0
    select_agg = np.concatenate([np.eye(k), np.zeros((k, k))], axis=1)
    p = model.params
    for i in range(k):
        pre = f"layers.{i}."
        p[pre + "msg0_weight"][...] = 0.0 if i == 0 else shift
        p[pre + "msg0_bias"][...] = 0.0
        p[pre + "msg1_weight"][...] = 0.0 if i == 0 else shift
        p[pre + "msg1_bias"][...] = e1
        p[pre + "update_weight"][...] = select_agg
        p[pre + "update_bias"][...] = 0.0
    return model


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: Model, path: str) -> None:
    """Write ``model``'s checkpoint to ``path`` atomically (datasets.atomic_write)."""
    header = {
        "format": "idgnn-checkpoint",
        "version": 1,
        "config": asdict(model.config),
        "params": [{"name": n, "shape": list(a.shape)} for n, a in model.params.items()],
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    params = [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in model.params.values()]
    atomic_write(path, b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(header_bytes)),
                                 header_bytes] + params))


def load_model(path: str) -> Model:
    """Read a checkpoint written by save_model; malformed content, including
    a NaN or infinite parameter, raises InputError.

    Older headers carry ``"edge_dim": 0`` from the removed edge-feature
    path; it is accepted and dropped, and a nonzero width is rejected.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    start = len(CHECKPOINT_MAGIC) + 4
    if len(raw) < start or not raw.startswith(CHECKPOINT_MAGIC):
        raise InputError(f"{path} is not a model checkpoint")
    (hlen,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    blob = raw[start + hlen:]
    try:
        header = json.loads(raw[start:start + hlen].decode())
        cfg = dict(header["config"])
        layout = [(e["name"], tuple(e["shape"])) for e in header["params"]]
        edge_dim = cfg.pop("edge_dim", 0)
        if edge_dim != 0:
            raise InputError(f"edge_dim {edge_dim}: edge features are not supported")
        config = ModelConfig(**cfg)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad checkpoint header: {exc}") from None
    # checked before the tensors are built, so a forged config allocates nothing
    if config.num_layers > len(layout) or _layout(config) != layout:
        raise InputError(f"{path}: checkpoint parameters do not match its config")
    if len(blob) != 8 * sum(math.prod(shape) for _, shape in layout):
        raise InputError(f"{path}: checkpoint blob size mismatch")
    values = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(values).all():
        raise InputError(f"{path}: checkpoint parameters are not all finite")
    params, offset = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        params[name] = values[offset:offset + size].reshape(shape).astype(np.float64)
        offset += size
    return Model(config, params)
