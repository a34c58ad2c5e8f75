import logging
import re

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from idgnn import generators
from idgnn.datasets import GraphRecord, record_to_obj, dumps_canonical
from idgnn.errors import CapabilityError, InputError
from idgnn.generators import (
    GeneratorSpec,
    child_seed,
    gen_d_regular,
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


def logged_restarts(caplog) -> int:
    """The restart count of the one debug record, read as the bench tracer
    reads it; no record means no restart."""
    counts = [int(m.group(1)) for r in caplog.records
              if (m := re.search(r"restarted (\d+) times", r.getMessage()))]
    assert len(counts) <= 1
    return counts[0] if counts else 0


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
