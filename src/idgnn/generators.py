"""Seeded synthetic graph generators: random d-regular, small-world, scale-free.

All randomness flows through numpy's PCG64 bit generator (the recorded
implementation constant ``RNG_NAME``). Per-graph streams are split
deterministically: ``child_seed(seed, index)`` hashes the pair with blake2b,
so datasets are reproducible bit-for-bit and may be generated out of order.

Because of that split, d-regular draws of many seeds (``gen_d_regular_many``,
which ``gen_dataset`` and the expressiveness pool call) run on every CPU the
process may use (``os.sched_getaffinity``): the caller draws one share of the
seeds and a forked child each other share. Graphs, restart records and errors
do not depend on how many CPUs there are. Each child asks the kernel to kill
it when its caller ends, so a killed command leaves no child behind. On
Python >= 3.12, ``os.fork`` warns when the process has other threads, BLAS
threads included; the child runs no BLAS, only shuffles and comparisons.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import pickle
import signal
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError, InputError
from .graph import Graph, build_graph, build_graphs

log = logging.getLogger(__name__)

RNG_NAME = "pcg64"
STREAM_SPLIT = "blake2b(seed,index)[:8]"

FAMILIES = ("d_regular", "small_world", "scale_free")

_MAX_PAIRING_RESTARTS = 1_000_000
_PAIRING_BLOCK = 128  # most consecutive shuffles _draw_pairing checks at once
_PAIRING_BLOCK_STUBS = 1 << 17  # and most stubs in one block (1 MB of int64)
_PR_SET_PDEATHSIG = 1  # linux/prctl.h


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one generator family.

    ``degree_param`` is d for d-regular, the ring-neighbor count k for
    small-world, and the attachment count m for scale-free.
    ``rewire_or_triad_prob`` is the rewiring probability p (small-world) or
    the triad-formation probability (scale-free); ignored for d-regular.
    """

    family: str
    num_nodes: int
    degree_param: int
    rewire_or_triad_prob: float = 0.0

    def __post_init__(self):
        _check_params(self.family, self.num_nodes, self.degree_param,
                      self.rewire_or_triad_prob)


def _check_params(family: str, n: int, param: int, prob: float) -> None:
    """InputError unless ``family`` is known and n nodes, ``param`` (d, k or
    m) and ``prob`` are valid for it; the spec and every generator check here."""
    if family not in FAMILIES:
        raise InputError(f"unknown family {family!r}")
    if not 0.0 <= prob <= 1.0:
        raise InputError(f"probability must be in [0, 1], got {prob}")
    if family == "d_regular":
        if not 0 <= param < n:
            raise InputError(f"d-regular needs 0 <= d < n, got d={param}, n={n}")
        if (n * param) % 2 != 0:
            raise InputError(f"n*d must be even for d-regular, got n={n}, d={param}")
    elif family == "small_world":
        if param % 2 != 0 or not 0 <= param < n:
            raise InputError(f"small-world needs even 0 <= k < n, got k={param}, n={n}")
    elif not 1 <= param < n:
        raise InputError(f"scale-free needs 1 <= m < n, got m={param}, n={n}")


def check_seed(seed: int) -> None:
    """InputError unless ``seed`` is a signed 64-bit integer."""
    if not -2**63 <= int(seed) < 2**63:
        raise InputError(f"seed {seed} is outside the signed 64-bit range")


def child_seed(seed: int, index: int) -> int:
    """Derive the per-item RNG seed from a base seed and an item index, both
    signed 64-bit integers."""
    check_seed(seed)
    payload = struct.pack(">qq", int(seed), int(index))
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _draw_pairing(n: int, d: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The pairing model on one seed's stream: the lower and upper endpoints
    of the first simple pairing, and how many pairings were discarded before
    it. Logs nothing and builds no graph.

    The checks run on blocks of consecutive shuffles of the stream (1, 2,
    4, ... up to ``_PAIRING_BLOCK`` rows), and the first simple row wins, so
    the pairing and the restart count are those of checking one shuffle at a
    time. The endpoints are copies, so the block is freed on return.
    """
    rng = _rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    restarts, batch = 0, 1
    while True:
        states = np.empty((batch, stubs.size), dtype=np.int64)
        for row in states:
            rng.shuffle(stubs)
            row[:] = stubs
        free = np.flatnonzero((states[:, 0::2] != states[:, 1::2]).all(axis=1))
        u, v = states[free, 0::2], states[free, 1::2]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = np.sort(lo * np.int64(n) + hi, axis=1)
        simple = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).all(axis=1))
        first = int(free[simple[0]]) if simple.size else batch
        restarts += first
        if restarts > _MAX_PAIRING_RESTARTS:
            raise CapabilityError(
                f"pairing model failed to produce a simple {d}-regular graph "
                f"on {n} nodes within {_MAX_PAIRING_RESTARTS} restarts"
            )
        if first < batch:
            break
        batch = max(1, min(2 * batch, _PAIRING_BLOCK, _PAIRING_BLOCK_STUBS // stubs.size))
    row = simple[0]
    return lo[row].copy(), hi[row].copy(), restarts


def _draw_share(n: int, d: int, seeds) -> tuple[list, Exception | None]:
    """The pairings of ``seeds`` in order, up to the first seed whose draw
    raises, and that error (None if every draw succeeds)."""
    draws = []
    for seed in seeds:
        try:
            draws.append(_draw_pairing(n, d, seed))
        except Exception as exc:
            return draws, exc
    return draws, None


def _allowed_cpus() -> int:
    """The number of CPUs this process may run on; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _die_with_parent(parent: int) -> None:
    """Have the kernel SIGKILL this process when its parent ends (Linux
    ``prctl(PR_SET_PDEATHSIG)``), and end now if the parent already has."""
    import ctypes

    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, TypeError, AttributeError):
        pass
    if os.getppid() != parent:
        os._exit(1)


def _fork_share(n: int, d: int, seeds, inherited: list[int]) -> tuple[int, int] | None:
    """Fork a child that draws ``seeds`` and pickles ``_draw_share``'s result
    into a pipe. Returns the child's pid and the pipe's read end, or None if
    the process cannot fork. ``inherited`` are the read ends of earlier
    children, which the child closes.

    The child ends with ``os._exit``, so no inherited stdio buffer, atexit
    hook or exception handler of the caller runs in it.
    """
    r, w = os.pipe()
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            for fd in (r, *inherited):
                os.close(fd)
            _die_with_parent(parent)
            with os.fdopen(w, "wb") as out:
                pickle.dump(_draw_share(n, d, seeds), out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _draw_pairings(n: int, d: int, seeds: list[int]) -> tuple[list, Exception | None]:
    """``_draw_share`` over all ``seeds``, split over the allowed CPUs.

    With P > 1 of them (and at least P seeds), share j is ``seeds[j::P]``:
    the caller draws share 0, and a forked child each other share (the
    caller draws a share itself if it cannot fork). The parent reads each
    pipe to EOF, then reaps its child; the shares merge back in seed order,
    up to the lowest failing index. A child that ends without its result is
    a CapabilityError. Whatever ends this call, every child is killed and
    reaped before it returns or raises.
    """
    procs = min(_allowed_cpus(), len(seeds))
    if procs <= 1:
        return _draw_share(n, d, seeds)
    pids: dict[int, int] = {}  # share -> pid of a child not yet reaped
    fds: dict[int, int] = {}  # share -> open read end of the child's pipe
    shares = {}
    try:
        for j in range(1, procs):
            child = _fork_share(n, d, seeds[j::procs], list(fds.values()))
            if child is None:
                break
            pids[j], fds[j] = child
        for j in range(procs):
            if j not in pids:
                shares[j] = _draw_share(n, d, seeds[j::procs])
        for j in list(pids):
            chunks = []
            while chunk := os.read(fds[j], 1 << 16):
                chunks.append(chunk)
            os.close(fds.pop(j))
            status = os.waitpid(pids[j], 0)[1]
            del pids[j]
            if status != 0:
                raise CapabilityError(f"a d-regular drawing process ended without its "
                                      f"result (wait status {status})")
            shares[j] = pickle.loads(b"".join(chunks))
    finally:
        for fd in fds.values():
            os.close(fd)
        for pid in pids.values():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
    draws = []
    for i in range(len(seeds)):
        share, error = shares[i % procs]
        if i // procs == len(share):
            return draws, error
        draws.append(share[i // procs])
    return draws, None


def gen_d_regular_many(n: int, d: int, seeds) -> list[Graph]:
    """``gen_d_regular`` on each seed, in order, drawn on every CPU the
    process may use: the caller and one forked child per further CPU each
    draw a share of the seeds. Nothing is forked for one seed or one CPU.

    Graphs, the debug records of their restart counts, and the error of the
    first seed that fails come out in seed order, exactly as drawing one
    seed at a time gives them, whatever the number of CPUs.
    """
    _check_params("d_regular", n, d, 0.0)
    draws, error = _draw_pairings(n, d, [int(seed) for seed in seeds])
    for _, _, restarts in draws:
        if restarts:
            log.debug("d-regular pairing restarted %d times (n=%d, d=%d)", restarts, n, d)
    if error is not None:
        raise error
    graphs = []
    for i, (lo, hi, _) in enumerate(draws):
        draws[i] = None  # each pairing is freed as its graph is built
        graphs.append(build_graphs([n], [lo.size], lo, hi)[0])
    return graphs


def gen_d_regular(n: int, d: int, seed: int) -> Graph:
    """Random d-regular graph via the configuration (pairing) model.

    Pairings containing a self-loop or duplicate edge are discarded and the
    whole pairing is restarted, which keeps the draw unbiased over simple
    pairings. The restart count is logged at debug level.
    """
    return gen_d_regular_many(n, d, [seed])[0]


def gen_small_world(n: int, k: int, p: float, seed: int) -> Graph:
    """Watts-Strogatz graph: ring lattice with k nearest neighbors, each edge
    rewired independently with probability p. Rewiring preserves the edge
    count and simplicity; an edge keeps its original endpoint if no valid
    rewire target exists.
    """
    _check_params("small_world", n, k, p)
    rng = _rng(seed)
    edge_set: set[tuple[int, int]] = set()

    def canon(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    for offset in range(1, k // 2 + 1):
        for u in range(n):
            edge_set.add(canon(u, (u + offset) % n))

    # rewire the far endpoint of each lattice edge, in deterministic order
    for offset in range(1, k // 2 + 1):
        for u in range(n):
            if rng.random() >= p:
                continue
            old = canon(u, (u + offset) % n)
            if old not in edge_set:
                continue  # already rewired away by an earlier step
            for _ in range(8 * n):
                w = int(rng.integers(n))
                if w != u and canon(u, w) not in edge_set:
                    edge_set.remove(old)
                    edge_set.add(canon(u, w))
                    break
    return build_graph(n, sorted(edge_set))


def gen_scale_free(n: int, m: int, p_triad: float, seed: int) -> Graph:
    """Growing scale-free graph: preferential attachment with m edges per new
    node plus a triad-formation step taken with probability p_triad.

    Growth starts from a clique on the first m nodes, so the edge count is
    always C(m, 2) + m * (n - m).
    """
    _check_params("scale_free", n, m, p_triad)
    rng = _rng(seed)
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # degree-proportional sampling pool: each node appears deg(node) times;
    # isolated seed node (m == 1) still needs to be attachable
    repeated: list[int] = [v for u, v in edges for v in (u, v)] or [0]

    for t in range(m, n):
        prev_target: int | None = None
        added = 0
        while added < m:
            z = None
            if prev_target is not None and p_triad > 0 and rng.random() < p_triad:
                cands = [w for w in sorted(adj[prev_target]) if w != t and w not in adj[t]]
                if cands:
                    z = cands[int(rng.integers(len(cands)))]
            if z is None:
                # preferential attachment, redrawing on collisions
                while True:
                    y = repeated[int(rng.integers(len(repeated)))]
                    if y != t and y not in adj[t]:
                        break
                z = y
                prev_target = y
            edges.append((t, z) if t < z else (z, t))
            adj[t].add(z)
            adj[z].add(t)
            repeated.extend((t, z))
            added += 1
    return build_graph(n, edges)


def generate_one(spec: GeneratorSpec, seed: int) -> Graph:
    if spec.family == "d_regular":
        return gen_d_regular(spec.num_nodes, spec.degree_param, seed)
    if spec.family == "small_world":
        return gen_small_world(
            spec.num_nodes, spec.degree_param, spec.rewire_or_triad_prob, seed
        )
    return gen_scale_free(
        spec.num_nodes, spec.degree_param, spec.rewire_or_triad_prob, seed
    )


def gen_dataset(spec: GeneratorSpec, count: int, seed: int) -> list[Graph]:
    """Generate ``count`` graphs with per-graph seeds split from ``seed``."""
    if count < 0:
        raise InputError(f"count must be nonnegative, got {count}")
    check_seed(seed)
    seeds = [child_seed(seed, i) for i in range(count)]
    if spec.family == "d_regular":
        return gen_d_regular_many(spec.num_nodes, spec.degree_param, seeds)
    return [generate_one(spec, s) for s in seeds]
