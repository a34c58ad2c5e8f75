"""Parameter-free walk-count constructions and the properties they recover.

"Cycle counts" here are closed-walk counts, Diag(A^k): adjacency powers
count walks, not simple paths or simple cycles, and walks are the only
reading consistent with the recovery formulas below (see
clustering_from_counts). The same counts come out of identity-aware message
passing with hand-set weights, nn.make_walk_count_model. All counting here
is exact integer arithmetic; 64-bit overflow is detected and reported.

There is one closed-walk kernel, ``walk_count_features_many``. It groups
whole graphs into blocks whose panel, the block's node count times the node
count of its largest graph, stays within ``_WALK_BLOCK_CELLS``, and builds
each block's block-diagonal int64 CSR adjacency matrix A from the graphs'
cached CSR arrays. A block keeps each power A^a as one dense int64 panel:
a node's row of A^a in the local columns of its graph, zero-padded, so
A^(a+1) is one sparse-times-dense product A @ A^a. A graph whose own panel
is larger than the bound is a block on its own and keeps its powers as
sparse CSR matrices instead. Either way the kernel forms A^a only up to
a = ceil(k/2) and reads diag(A^(a+b)) as the row sums of A^a * A^b
(elementwise, b in {a, a+1}), which holds because A is symmetric. The
64-bit check is sound and per graph: before forming A^(a+1) it requires
max(A^a) * maxdeg <= 2^62, and before each row sum of X * Y it requires
max(X) * max(Y) * (largest nonzero count of a row of X) <= 2^62, each over
one graph's rows, so a list raises CapabilityError exactly when one of its
graphs would on its own. ``walk_count_features`` is its one-graph view.
scipy is imported by the first block adjacency built, not with the module.

The count rows are read two ways, each coded once: ``count_signatures``
turns count matrices into canonical signatures, and ``with_count_columns``
appends them to per-graph base features, reading the first k columns of
matrices the caller passes (a clustering task keeps one count matrix per
graph, at a width its caller chooses) or else computing them.
``graph_signature`` and ``augment_features`` are their one-graph views.

``clustering_from_counts`` is the one clustering formula; the clustering
task labels in ``tasks`` read it.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import CapabilityError, InputError
from .graph import Graph, union_csr

_INT64_LIMIT = np.int64(2**62)


# Graphs whose walk counts are computed together are grouped so that a
# block's panel, its node count times the node count of its largest graph,
# stays within this many cells; such a block runs as dense int64 panels. A
# graph whose own panel is larger is a block on its own and runs as sparse
# CSR powers. At 2^16 cells one graph of up to 256 nodes runs as a panel: on
# single small-world and scale-free graphs of mean degree 4, panels and CSR
# powers took the same time at k = 3 and 256 to 300 nodes, and panels were
# faster at larger k or on smaller graphs.
_WALK_BLOCK_CELLS = 1 << 16


def _walk_blocks(sizes: list[int]):
    """Consecutive ``(start, stop)`` ranges of graphs, each holding at least
    one graph and a panel of at most _WALK_BLOCK_CELLS cells unless it is
    one graph."""
    start, rows, width = 0, 0, 0
    for i, n in enumerate(sizes):
        if i > start and (rows + n) * max(width, n) > _WALK_BLOCK_CELLS:
            yield start, i
            start, rows, width = i, 0, 0
        rows, width = rows + n, max(width, n)
    if start < len(sizes):
        yield start, len(sizes)


def _block_adjacency(graphs: list[Graph]):
    """The block-diagonal scipy CSR adjacency matrix of ``graphs``."""
    import scipy.sparse as sp

    indptr, indices = union_csr(graphs)
    n = int(indptr.size - 1)
    return sp.csr_matrix((np.ones(indices.size, dtype=np.int64), indices, indptr),
                         shape=(n, n))


def zero_counts(rows: int, k: int) -> np.ndarray:
    """A zeroed ``rows`` x ``k`` int64 count matrix; InputError when numpy
    cannot represent its shape."""
    try:
        return np.zeros((rows, k), dtype=np.int64)
    except ValueError as exc:  # the shape itself is out of range
        raise InputError(f"walk length k={k} is too large: {exc}") from None


def _graph_max(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-graph maxima of ``values``, which hold graph after graph from the
    ascending ``starts``; a graph without values gets 0."""
    out = np.zeros(starts.size, dtype=np.int64)
    nonempty = np.append(starts[1:], values.size) > starts
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(values, starts[nonempty])
    return out


def _check_range(over: np.ndarray, length: int) -> None:
    if over.any():
        raise CapabilityError(
            f"walk counts exceed the 64-bit integer range at length {length}"
        )


def _adjacency_panel(adj, sizes: np.ndarray, first_row: np.ndarray) -> np.ndarray:
    """A as a dense panel: row r holds r's row of A in the local columns of
    r's graph, zero-padded to the largest graph's node count."""
    rows = np.repeat(np.arange(adj.shape[0]), np.diff(adj.indptr))
    panel = np.zeros((adj.shape[0], int(sizes.max())), dtype=np.int64)
    panel[rows, adj.indices - np.repeat(first_row, sizes)[rows]] = 1
    return panel


def _top(power, first_row: np.ndarray) -> np.ndarray:
    """Per-graph maxima of a power, a dense panel or CSR."""
    if isinstance(power, np.ndarray):
        return _graph_max(power.ravel(), first_row * power.shape[1])
    return _graph_max(power.data, power.indptr[first_row])


def _longest_row(power, first_row: np.ndarray) -> np.ndarray:
    """Per graph, the largest nonzero count of a row of a power."""
    if isinstance(power, np.ndarray):
        return _graph_max(np.count_nonzero(power, axis=1), first_row)
    return _graph_max(np.diff(power.indptr), first_row)


def _row_dots(x, y) -> np.ndarray:
    """Row sums of x * y (elementwise), for two panels or two CSR powers."""
    if isinstance(x, np.ndarray):
        return np.einsum("ij,ij->i", x, y)
    return np.asarray(x.multiply(y).sum(axis=1), dtype=np.int64).ravel()


def _dots_over(x_top: np.ndarray, y_top: np.ndarray, widest: np.ndarray) -> np.ndarray:
    """Per graph, whether max(X) * max(Y) * (longest row of X) may pass 2^62."""
    return x_top > _INT64_LIMIT // np.maximum(widest, 1) // np.maximum(y_top, 1)


def _block_counts(graphs: list[Graph], k: int) -> np.ndarray:
    """Closed-walk counts of one block of graphs, their rows stacked."""
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    first_row = np.cumsum(sizes) - sizes
    out = zero_counts(int(sizes.sum()), k)
    adj = _block_adjacency(graphs)
    deg = np.diff(adj.indptr)
    if deg.max(initial=0) < 2:
        # a closed walk on a matching steps to the partner and back, so the
        # columns are 0, deg, 0, deg, ... and no count ever grows
        out[:, 1::2] = deg[:, None]
        return out
    max_deg = _graph_max(deg, first_row)
    # Column 1 is diag(A) = 0 (no self-loops); lo = A^a, hi = A^a or A^(a+1).
    if out.shape[0] * sizes.max() <= _WALK_BLOCK_CELLS:
        lo = _adjacency_panel(adj, sizes, first_row)
    else:
        lo = adj
    lo_top = _top(lo, first_row)
    for j in range(2, k + 1):
        if j % 2:
            _check_range(lo_top > _INT64_LIMIT // np.maximum(max_deg, 1), j)
            hi = adj @ lo
            hi_top = _top(hi, first_row)
        else:
            hi, hi_top = lo, lo_top
        # a graph's node count bounds its longest row
        if _dots_over(lo_top, hi_top, sizes).any():
            _check_range(_dots_over(lo_top, hi_top, _longest_row(lo, first_row)), j)
        out[:, j - 1] = _row_dots(lo, hi)
        lo, lo_top = hi, hi_top
    return out


def walk_count_features_many(graphs: list[Graph], k: int) -> list[np.ndarray]:
    """Closed-walk counts Diag(A^j) for j = 1..k of every graph in
    ``graphs``: one int64 array per graph with one row per node.

    Raises CapabilityError if a count could exceed the 64-bit range, which
    happens for a list exactly when it happens for one of its graphs alone.
    Column 2 is the degree sequence and column 3 is twice the per-node
    triangle count.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    sizes = [g.num_nodes for g in graphs]
    out: list[np.ndarray] = []
    for start, stop in _walk_blocks(sizes):
        counts = _block_counts(graphs[start:stop], k)
        out.extend(np.split(counts, np.cumsum(sizes[start:stop - 1])))
    return out


def walk_count_features(g: Graph, k: int) -> np.ndarray:
    """Closed-walk counts Diag(A^j) for j = 1..k of one graph, one row per
    node (see walk_count_features_many)."""
    return walk_count_features_many([g], k)[0]


def clustering_from_counts(counts) -> float | np.ndarray:
    """Clustering coefficients from closed-walk counts: a float for one
    count row, an array for a matrix of rows, each with counts up to length 3.

    Uses count(2) = degree and count(3) = 2 * triangles: the coefficient is
    count(3) / (count(2) * (count(2) - 1)), the executable form of the
    triangles-over-neighbor-pairs definition, and 0 when degree < 2.
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.ndim not in (1, 2) or c.shape[-1] < 3:
        raise InputError(f"need counts up to length 3, got shape {c.shape}")
    deg = c[..., 1]
    cc = np.divide(c[..., 2], deg * (deg - 1), out=np.zeros(deg.shape), where=deg > 1)
    return cc if c.ndim == 2 else float(cc)


def count_signatures(counts: list[np.ndarray]) -> list[bytes]:
    """Canonical byte signature of each n x k int64 count matrix, all of one
    k: a header of k and n, then its rows in lexicographic order as int64
    bytes. Equal exactly when the matrices hold the same multiset of rows,
    so isomorphic graphs get equal signatures, which refine as k grows.
    One lexsort orders the rows of every matrix, the matrix index its first
    key."""
    if not counts:
        return []
    sizes = [c.shape[0] for c in counts]
    rows = np.concatenate(counts)
    rows = rows[np.lexsort((*rows.T[::-1], np.repeat(np.arange(len(counts)), sizes)))]
    return [struct.pack("=qq", rows.shape[1], n) + rows[end - n:end].tobytes()
            for n, end in zip(sizes, np.cumsum(sizes).tolist())]


def graph_signature(g: Graph, k: int) -> bytes:
    """The signature of one graph's closed-walk counts up to length k (see
    count_signatures)."""
    return count_signatures([walk_count_features(g, k)])[0]


def with_count_columns(graphs: list[Graph], bases: list[np.ndarray | None], k: int,
                       transform=None, walks: list[np.ndarray] | None = None
                       ) -> list[np.ndarray]:
    """Each graph's base columns followed by its k closed-walk count columns
    as floats, passed through ``transform`` if one is given; a None base
    gives the count columns alone.

    The counts are the first k columns of ``walks``, the graphs' count
    matrices at a width of the caller's choosing, at least k (a clustering
    task keeps one per graph); without them, one kernel call computes all
    graphs' counts. The float cast and ``transform`` run once, on the
    stacked rows of every graph."""
    if walks is None:
        walks = walk_count_features_many(graphs, k)
    sizes = [w.shape[0] for w in walks]
    c = np.concatenate([zero_counts(0, k)] + [w[:, :k] for w in walks]).astype(np.float64)
    if transform is not None:
        c = transform(c)
    return [part if base is None else np.concatenate([base, part], axis=1)
            for base, part in zip(bases, np.split(c, np.cumsum(sizes[:-1], dtype=np.int64)))]


def augment_features(g: Graph, k: int) -> np.ndarray:
    """Node features with closed-walk count columns appended (as floats);
    a graph without features gets the count columns alone."""
    return with_count_columns([g], [g.node_features], k)[0]
