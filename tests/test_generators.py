import logging
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from idgnn import generators
from idgnn.expressiveness import build_nonisomorphic_pool
from idgnn.datasets import GraphRecord, record_to_obj, dumps_canonical
from idgnn.errors import CapabilityError, InputError
from idgnn.generators import (
    GeneratorSpec,
    child_seed,
    gen_d_regular,
    gen_d_regular_many,
    gen_dataset,
    gen_scale_free,
    gen_small_world,
)
from idgnn.wl import wl_graph_hash

from oracles import (
    bfs_distances,
    clustering_direct,
    d_regular_sequential,
    edge_list,
    neighbor_lists,
)


class TestDRegular:
    def test_k4_is_unique_3_regular(self):
        for seed in (0, 1, 99):
            g = gen_d_regular(4, 3, seed)
            assert edge_list(g) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

    def test_degrees_all_d(self):
        g = gen_d_regular(40, 5, 7)
        assert set(g.degrees()) == {5}

    def test_parity_error(self):
        with pytest.raises(InputError):
            gen_d_regular(5, 3, 0)

    def test_d_too_large(self):
        with pytest.raises(InputError):
            gen_d_regular(4, 4, 0)

    def test_deterministic(self):
        assert edge_list(gen_d_regular(20, 4, 3)) == edge_list(gen_d_regular(20, 4, 3))


def restart_records(caplog) -> list[int]:
    """The restart counts of the debug records, in order, read as the bench
    tracer reads them."""
    return [int(m.group(1)) for r in caplog.records
            if (m := re.search(r"restarted (\d+) times", r.getMessage()))]


def logged_restarts(caplog) -> int:
    """The restart count of the one debug record; no record means no restart."""
    counts = restart_records(caplog)
    assert len(counts) <= 1
    return counts[0] if counts else 0


def allow_cpus(monkeypatch, cpus: int) -> None:
    """Make the generator see ``cpus`` allowed CPUs."""
    monkeypatch.setattr(generators, "_allowed_cpus", lambda: cpus)


def assert_no_child() -> None:
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# n*d even and d <= 5: the pairing model restarts about exp((d*d - 1) / 4)
# times, and near-complete settings such as (12, 7) exceed the restart cap
d_regular_settings = st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([d for d in range(min(n, 6)) if n * d % 2 == 0])))


class TestDRegularMatchesSequential:
    """Checking blocks of consecutive shuffles yields the graph and the restart
    count of checking one shuffle at a time."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=d_regular_settings, seed=st.integers(0, 2**63 - 1))
    @example(setting=(7, 0), seed=0)
    @example(setting=(8, 1), seed=3)
    @example(setting=(4, 3), seed=0)
    @example(setting=(4, 3), seed=99)
    def test_same_edges_and_restarts(self, caplog, setting, seed):
        n, d = setting
        caplog.clear()
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        g = gen_d_regular(n, d, seed)
        edges, restarts = d_regular_sequential(n, d, seed)
        assert edge_list(g) == edges
        assert logged_restarts(caplog) == restarts

    def test_table_settings(self, caplog):
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        for n, d in ((64, 4), (40, 5), (96, 6)):
            caplog.clear()
            edges, restarts = d_regular_sequential(n, d, 0)
            assert edge_list(gen_d_regular(n, d, 0)) == edges
            assert logged_restarts(caplog) == restarts

    def test_cap_boundary(self, monkeypatch):
        # seed 9 at (20, 4) accepts pairing 117, inside the block of 63..126
        edges, restarts = d_regular_sequential(20, 4, 9)
        assert restarts == 117
        monkeypatch.setattr(generators, "_MAX_PAIRING_RESTARTS", restarts - 1)
        with pytest.raises(CapabilityError):
            gen_d_regular(20, 4, 9)
        monkeypatch.setattr(generators, "_MAX_PAIRING_RESTARTS", restarts)
        assert edge_list(gen_d_regular(20, 4, 9)) == edges

    @pytest.mark.parametrize("stubs", [1, 200])
    def test_block_stub_bound(self, monkeypatch, caplog, stubs):
        # blocks of one row when one pairing has more stubs than the bound,
        # of at most two rows when 80 stubs meet a bound of 200
        monkeypatch.setattr(generators, "_PAIRING_BLOCK_STUBS", stubs)
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        edges, restarts = d_regular_sequential(20, 4, 9)
        assert edge_list(gen_d_regular(20, 4, 9)) == edges
        assert logged_restarts(caplog) == restarts


    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=d_regular_settings,
           seeds=st.lists(st.integers(0, 2**63 - 1), max_size=7),
           cpus=st.integers(1, 3))
    @example(setting=(20, 4), seeds=list(range(9, 14)), cpus=2)
    def test_many_seeds_same_edges_and_restarts(self, caplog, setting, seeds, cpus):
        # each seed's graph, and the records in seed order, at every CPU count
        n, d = setting
        caplog.clear()
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        with pytest.MonkeyPatch.context() as mp:
            allow_cpus(mp, cpus)
            graphs = gen_d_regular_many(n, d, seeds)
        want = [d_regular_sequential(n, d, seed) for seed in seeds]
        assert [edge_list(g) for g in graphs] == [edges for edges, _ in want]
        assert restart_records(caplog) == [r for _, r in want if r]
        assert_no_child()


def test_pairing_keeps_only_its_own_edges():
    # the endpoints own their memory, so a held pairing keeps no block alive
    lo, hi, restarts = generators._draw_pairing(20, 4, 9)
    assert restarts == 117 and lo.base is None and hi.base is None
    assert tuple(sorted(zip(lo.tolist(), hi.tolist()))) == d_regular_sequential(20, 4, 9)[0]


class TestCpuCount:
    """Outputs do not depend on how many CPUs the process may use."""

    def outcome(self, monkeypatch, caplog, cpus):
        allow_cpus(monkeypatch, cpus)
        caplog.clear()
        graphs = gen_dataset(GeneratorSpec("d_regular", 40, 5), 12, 3)
        pool, regen = build_nonisomorphic_pool(8, 3, 5, 0)
        assert_no_child()
        return ([edge_list(g) for g in graphs], restart_records(caplog),
                [edge_list(g) for g in pool], regen)

    def test_one_and_two_cpus_agree(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        one, two = (self.outcome(monkeypatch, caplog, cpus) for cpus in (1, 2))
        assert one == two
        assert one[1] and one[3] == 7  # draws restarted, and the pool regenerated

    def test_affinity_read(self):
        assert generators._allowed_cpus() == len(os.sched_getaffinity(0))

    def test_no_fork_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert generators._allowed_cpus() == 1
        assert len(gen_d_regular_many(10, 3, range(4))) == 4

    def test_one_seed_not_forked(self, monkeypatch):
        allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        assert edge_list(gen_d_regular(20, 4, 9)) == d_regular_sequential(20, 4, 9)[0]

    def test_failed_fork_draws_in_process(self, monkeypatch, caplog):
        def no_fork():
            raise BlockingIOError("fork: resource temporarily unavailable")

        allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", no_fork)
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        graphs = gen_d_regular_many(20, 4, range(7))
        want = [d_regular_sequential(20, 4, seed) for seed in range(7)]
        assert [edge_list(g) for g in graphs] == [edges for edges, _ in want]
        assert restart_records(caplog) == [r for _, r in want if r]


class TestDrawFailures:
    """Failing draws raise the serial loop's error, and leave no process."""

    SEEDS = range(16)  # restarts at (20, 4): 36 59 2 1 5 26 9 2 8 117 212 155 ...

    @pytest.mark.parametrize("first", [0, 1])
    def test_lowest_failing_index_raises(self, monkeypatch, caplog, first):
        # under a cap of 100, seeds 9, 10 and 11 fail; starting the list at
        # seed 0 puts the first failure in the child's share, at seed 1 in
        # the parent's, and both shares fail either way
        seeds = list(self.SEEDS)[first:]
        restarts = [d_regular_sequential(20, 4, seed)[1] for seed in seeds]
        failing = [i for i, r in enumerate(restarts) if r > 100]
        assert failing[0] % 2 == 1 - first and {i % 2 for i in failing} == {0, 1}
        allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(generators, "_MAX_PAIRING_RESTARTS", 100)
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        with pytest.raises(CapabilityError) as exc:
            gen_d_regular_many(20, 4, seeds)
        assert str(exc.value) == ("pairing model failed to produce a simple 4-regular "
                                  "graph on 20 nodes within 100 restarts")
        assert restart_records(caplog) == restarts[:failing[0]]
        assert_no_child()

    @pytest.mark.parametrize("cpus, failing", [(2, {5, 6}), (2, {4, 7}), (3, {7, 8, 9}),
                                               (3, {3, 5, 7}), (3, {2, 4})])
    def test_error_of_lowest_index(self, monkeypatch, caplog, cpus, failing):
        # each failing seed raises its own message; the lowest index wins,
        # whichever process drew it, and no record follows it
        draw_pairing = generators._draw_pairing

        def failing_draw(n, d, seed):
            if seed in failing:
                raise CapabilityError(f"seed {seed}")
            return draw_pairing(n, d, seed)

        allow_cpus(monkeypatch, cpus)
        monkeypatch.setattr(generators, "_draw_pairing", failing_draw)
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        with pytest.raises(CapabilityError, match=f"^seed {min(failing)}$"):
            gen_d_regular_many(20, 4, range(10))
        assert restart_records(caplog) == [d_regular_sequential(20, 4, seed)[1]
                                           for seed in range(min(failing))]
        assert_no_child()

    def test_child_without_result(self, monkeypatch):
        # a child that ends before writing raises, never hangs, and is reaped
        parent, draw_share = os.getpid(), generators._draw_share

        def dying(n, d, seeds):
            if os.getpid() != parent:
                os._exit(7)
            return draw_share(n, d, seeds)

        allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(generators, "_draw_share", dying)
        with pytest.raises(CapabilityError, match="ended without its result"):
            gen_d_regular_many(20, 4, range(6))
        assert_no_child()

    def test_interrupt_kills_children(self, monkeypatch):
        # the parent is interrupted while its children are still busy: it
        # kills them rather than waiting for them
        parent = os.getpid()

        def interrupted(n, d, seeds):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)

        allow_cpus(monkeypatch, 3)
        monkeypatch.setattr(generators, "_draw_share", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            gen_d_regular_many(20, 4, range(6))
        assert time.monotonic() - start < 10
        assert_no_child()


def _stat(pid: int) -> list[str]:
    """The fields of /proc/<pid>/stat after the command name, from the state
    on; OSError once the process is reaped."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _children(pid: int) -> list[tuple[int, str]]:
    """(pid, start time) of each child of the main thread of ``pid``."""
    text = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    return [(child, _stat(child)[19]) for child in map(int, text.split())]


def _running(pid: int, start: str) -> bool:
    """True while the process ``pid`` that started at ``start`` exists and is
    not a zombie."""
    try:
        fields = _stat(pid)
    except OSError:
        return False
    return fields[19] == start and fields[0] != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<tid>/children")
def test_killed_caller_leaves_no_child():
    # SIGKILL runs no cleanup in the caller; the kernel ends its child at once
    code = ("import sys; from idgnn import generators; "
            "generators._allowed_cpus = lambda: 2; "
            "from idgnn.expressiveness import build_nonisomorphic_pool; "
            "print('drawing', flush=True); build_nonisomorphic_pool(96, 6, 200, 0)")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"drawing\n"
        deadline = time.monotonic() + 30
        while not (children := _children(proc.pid)):
            assert time.monotonic() < deadline and proc.poll() is None
            time.sleep(0.02)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    # the child's share of 100 graphs takes several seconds to draw
    deadline = time.monotonic() + 2
    while any(_running(*child) for child in children):
        assert time.monotonic() < deadline, f"children {children} outlived their parent"
        time.sleep(0.02)


class TestSmallWorld:
    def test_ring_lattice_at_p0(self):
        g = gen_small_world(10, 4, 0.0, 1)
        assert set(g.degrees()) == {4}
        adjacency = neighbor_lists(g)
        for v in range(10):
            assert set(adjacency[v]) == {(v + o) % 10 for o in (-2, -1, 1, 2)}

    def test_ring_lattice_clustering_half(self):
        g = gen_small_world(10, 4, 0.0, 1)
        for v in range(10):
            assert clustering_direct(g, v) == 0.5

    def test_rewiring_preserves_edge_count(self):
        g = gen_small_world(200, 4, 0.3, 1)
        assert g.num_edges == 200 * 4 // 2
        assert all(u != v for u, v in edge_list(g))

    def test_odd_k_rejected(self):
        with pytest.raises(InputError):
            gen_small_world(10, 3, 0.1, 0)

    def test_deterministic(self):
        assert edge_list(gen_small_world(50, 4, 0.5, 9)) \
            == edge_list(gen_small_world(50, 4, 0.5, 9))


class TestScaleFree:
    def test_m1_yields_tree(self):
        g = gen_scale_free(5, 1, 0.0, 0)
        assert g.num_edges == 4
        assert all(d is not None for d in bfs_distances(g, 0, 5))

    def test_average_degree_near_2m(self):
        g = gen_scale_free(100, 2, 0.5, 3)
        assert g.num_edges == 1 + 2 * 98
        avg = 2 * g.num_edges / 100
        assert abs(avg - 4.0) <= 0.2

    def test_edge_count_formula(self):
        for n, m in ((30, 3), (50, 2), (12, 4)):
            g = gen_scale_free(n, m, 0.4, 5)
            assert g.num_edges == m * (m - 1) // 2 + m * (n - m)

    def test_invalid_m(self):
        with pytest.raises(InputError):
            gen_scale_free(3, 4, 0.0, 0)

    def test_deterministic(self):
        assert edge_list(gen_scale_free(60, 2, 0.6, 2)) == edge_list(gen_scale_free(60, 2, 0.6, 2))


class TestDataset:
    def test_byte_identical_reruns(self):
        spec = GeneratorSpec("small_world", 40, 4, 0.2)
        a = gen_dataset(spec, 16, 5)
        b = gen_dataset(spec, 16, 5)
        blob_a = "\n".join(dumps_canonical(record_to_obj(GraphRecord(g))) for g in a)
        blob_b = "\n".join(dumps_canonical(record_to_obj(GraphRecord(g))) for g in b)
        assert blob_a == blob_b

    def test_all_regular(self):
        spec = GeneratorSpec("d_regular", 64, 4)
        graphs = gen_dataset(spec, 10, 3)
        assert all(set(g.degrees()) == {4} for g in graphs)

    def test_different_seed_differs(self):
        spec = GeneratorSpec("small_world", 40, 4, 0.2)
        a = gen_dataset(spec, 8, 5)
        b = gen_dataset(spec, 8, 6)
        assert any(wl_graph_hash(x) != wl_graph_hash(y) for x, y in zip(a, b))

    def test_child_seed_spread(self):
        seeds = {child_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_unknown_family(self):
        with pytest.raises(InputError):
            GeneratorSpec("erdos", 10, 3)


# (family, n, d/k/m, probability) sets that no generator accepts
INVALID_PARAMS = [
    ("d_regular", 5, 3, 0.0),  # n * d odd
    ("d_regular", 4, 4, 0.0),  # d >= n
    ("d_regular", 4, -2, 0.0),
    ("small_world", 10, 3, 0.1),  # odd k
    ("small_world", 10, 10, 0.1),  # k >= n
    ("small_world", 10, -2, 0.1),
    ("small_world", 10, 4, 1.5),
    ("small_world", 10, 4, float("nan")),
    ("scale_free", 3, 4, 0.0),  # m >= n
    ("scale_free", 5, 0, 0.0),
    ("scale_free", 10, 2, -0.1),
]


@pytest.mark.parametrize("family, n, param, prob", INVALID_PARAMS)
def test_invalid_parameters_rejected_by_spec_and_generator(family, n, param, prob):
    with pytest.raises(InputError):
        GeneratorSpec(family, n, param, prob)
    gen = {"d_regular": lambda: gen_d_regular(n, param, 0),
           "small_world": lambda: gen_small_world(n, param, prob, 0),
           "scale_free": lambda: gen_scale_free(n, param, prob, 0)}[family]
    with pytest.raises(InputError):
        gen()


def test_simplicity_across_families():
    for g in (
        gen_d_regular(30, 3, 11),
        gen_small_world(30, 4, 0.4, 11),
        gen_scale_free(30, 3, 0.7, 11),
    ):
        seen = set()
        for u, v in edge_list(g):
            assert u < v
            assert (u, v) not in seen
            seen.add((u, v))
