import logging
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from scipy.stats import chi2_contingency

from idgnn import generators
from idgnn.errors import CapabilityError, InputError
from idgnn.datasets import GraphRecord, record_to_obj, dumps_canonical
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
    d_regular_switching_sequential,
    edge_list,
    neighbor_lists,
    pair_counts,
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

    @pytest.mark.parametrize("n, d, most", [
        (64, 4, 29), (40, 5, 15), (96, 6, 61), (16, 3, 1), (20, 4, 2), (24, 3, 5),
        (8, 3, 0), (10, 3, 0), (10, 4, 0), (30, 2, 0)])
    def test_most_doubles(self, n, d, most):
        assert generators._bounds(n, d)[3] == most

    def test_no_switching_keeps_the_pairing_model(self):
        # where D = 0 only simple rows are candidates: the pairing model's graphs
        for n, d in ((8, 3), (10, 3), (10, 4)):
            for seed in range(20):
                assert edge_list(gen_d_regular(n, d, seed)) == d_regular_sequential(n, d, seed)[0]


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


# n*d even and d <= 5: rows without loops come about every exp((d - 1) / 2)
# shuffles, simple ones about every exp((d*d - 1) / 4), and near-complete
# settings such as (12, 7) exceed the restart cap; n <= 24 reaches D >= 1
# at (16, 3), (20, 4), (24, 5) and others
d_regular_settings = st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from([d for d in range(min(n, 6)) if n * d % 2 == 0])))


class TestDRegularMatchesSequential:
    """Checking blocks of consecutive shuffles, and switching the candidates
    that have double edges, yields the graph and the restart count of
    checking one row at a time."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=d_regular_settings, seed=st.integers(0, 2**63 - 1))
    @example(setting=(7, 0), seed=0)
    @example(setting=(8, 1), seed=3)
    @example(setting=(4, 3), seed=0)
    @example(setting=(4, 3), seed=99)
    @example(setting=(16, 3), seed=0)
    @example(setting=(24, 5), seed=1)
    def test_same_edges_and_restarts(self, caplog, setting, seed):
        n, d = setting
        caplog.clear()
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        g = gen_d_regular(n, d, seed)
        edges, restarts = d_regular_switching_sequential(n, d, seed)
        assert edge_list(g) == edges
        assert logged_restarts(caplog) == restarts

    def test_table_settings(self, caplog):
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        for n, d in ((64, 4), (40, 5), (96, 6)):
            caplog.clear()
            edges, restarts = d_regular_switching_sequential(n, d, 0)
            assert edge_list(gen_d_regular(n, d, 0)) == edges
            assert logged_restarts(caplog) == restarts

    def test_cap_boundary(self, monkeypatch):
        # seed 9 at (20, 4) accepts row 117, inside the block of rows
        # 115..119 (blocks of 5 rows), after rejecting candidates with doubles
        edges, restarts = d_regular_switching_sequential(20, 4, 9)
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
        edges, restarts = d_regular_switching_sequential(20, 4, 9)
        assert edge_list(gen_d_regular(20, 4, 9)) == edges
        assert logged_restarts(caplog) == restarts

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(setting=d_regular_settings,
           seeds=st.lists(st.integers(0, 2**63 - 1), max_size=7))
    @example(setting=(20, 4), seeds=list(range(9, 14)))
    def test_many_seeds_same_edges_and_restarts(self, caplog, setting, seeds):
        # each seed's graph, and the records in seed order
        n, d = setting
        caplog.clear()
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        graphs = gen_d_regular_many(n, d, seeds)
        want = [d_regular_switching_sequential(n, d, seed) for seed in seeds]
        assert [edge_list(g) for g in graphs] == [edges for edges, _ in want]
        assert restart_records(caplog) == [r for _, r in want if r]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 12345, 987654321987, 2**63 - 1])
    def test_switching_stream_is_the_jumped_one(self, seed):
        # advancing PCG64(seed) by jumped()'s step; each of these draws at (40, 5) switches
        stream = np.random.PCG64(seed).advance(generators._SWITCHING_JUMP)
        assert stream.state == np.random.PCG64(seed).jumped().state
        edges, _ = d_regular_switching_sequential(40, 5, seed)
        assert edge_list(gen_d_regular(40, 5, seed)) == edges

    def test_batches_build_the_graphs_of_one_at_a_time(self, monkeypatch):
        # batches of 3, 3 and 1 graphs give each graph the CSR arrays of its own build
        seeds = range(7)
        monkeypatch.setattr(generators, "_BUILD_EDGES", 3 * 20 * 4 // 2)
        batched = gen_d_regular_many(20, 4, seeds)
        for g, seed in zip(batched, seeds, strict=True):
            lo, hi, _ = generators._draw_pairing(20, 4, seed)
            alone = generators.build_graphs([20], [40], lo, hi)[0]
            for name in ("indptr", "indices"):
                assert getattr(g, name).tobytes() == getattr(alone, name).tobytes()


def test_pairing_keeps_only_its_own_edges():
    # the endpoints own their memory, so a held pairing keeps no block alive
    lo, hi, restarts = generators._draw_pairing(20, 4, 9)
    assert restarts == 117 and lo.base is None and hi.base is None
    assert (tuple(sorted(zip(lo.tolist(), hi.tolist())))
            == d_regular_switching_sequential(20, 4, 9)[0])


class TestDrawFailures:
    """A failing draw raises the one-row-at-a-time error, after the records
    of the seeds before it."""

    SEEDS = range(16)  # restarts at (20, 4): 36 44 2 1 5 26 1 2 8 117 30 111 ...

    @pytest.mark.parametrize("first", [0, 1])
    def test_lowest_failing_index_raises(self, monkeypatch, caplog, first):
        # under a cap of 100, seeds 9 and 11 fail; the first of them raises
        seeds = list(self.SEEDS)[first:]
        restarts = [d_regular_switching_sequential(20, 4, seed)[1] for seed in seeds]
        failing = [i for i, r in enumerate(restarts) if r > 100]
        assert len(failing) == 2
        monkeypatch.setattr(generators, "_MAX_PAIRING_RESTARTS", 100)
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        with pytest.raises(CapabilityError) as exc:
            gen_d_regular_many(20, 4, seeds)
        assert str(exc.value) == ("pairing model failed to produce a simple 4-regular "
                                  "graph on 20 nodes within 100 restarts")
        assert restart_records(caplog) == restarts[:failing[0]]

    @pytest.mark.parametrize("failing", [{5, 6}, {4, 7}, {7, 8, 9}, {3, 5, 7}, {2, 4}])
    def test_error_of_lowest_index(self, monkeypatch, caplog, failing):
        # each failing seed raises its own message; the lowest index wins,
        # and no record follows it
        draw_pairing = generators._draw_pairing

        def failing_draw(n, d, seed):
            if seed in failing:
                raise CapabilityError(f"seed {seed}")
            return draw_pairing(n, d, seed)

        monkeypatch.setattr(generators, "_draw_pairing", failing_draw)
        caplog.set_level(logging.DEBUG, logger="idgnn.generators")
        with pytest.raises(CapabilityError, match=f"^seed {min(failing)}$"):
            gen_d_regular_many(20, 4, range(10))
        assert restart_records(caplog) == [d_regular_switching_sequential(20, 4, seed)[1]
                                           for seed in range(min(failing))]


def shuffled_candidate(n: int, d: int, doubles: int, seed: int) -> list[int]:
    """The first shuffle of the stubs on PCG64(seed) with no loop, no edge of
    multiplicity 3 or more, and exactly ``doubles`` double edges."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    while True:
        rng.shuffle(stubs)
        cells = stubs.tolist()
        counts = pair_counts(cells)
        if (all(a != b for a, b in zip(cells[0::2], cells[1::2]))
                and max(counts.values()) <= 2 and list(counts.values()).count(2) == doubles):
            return cells


class Arrangement:
    """A stub arrangement read by definition: edge multiplicities, neighbour
    sets, double edges in (lo, hi) order, the slots of each edge, and every
    ordered star (c; w1, w2) of single edges."""

    def __init__(self, cells: list[int], n: int):
        self.cells = list(cells)
        self.counts = pair_counts(self.cells)
        self.near = [set() for _ in range(n)]
        self.single = [set() for _ in range(n)]
        for (a, b), k in self.counts.items():
            self.near[a].add(b)
            self.near[b].add(a)
            if k == 1:
                self.single[a].add(b)
                self.single[b].add(a)
        self.doubles = sorted(e for e, k in self.counts.items() if k == 2)
        self.slot: dict[tuple[int, int], list[int]] = {}
        for i, (a, b) in enumerate(zip(self.cells[0::2], self.cells[1::2])):
            self.slot.setdefault((a, b) if a < b else (b, a), []).append(2 * i)

    def stars(self) -> list[tuple[int, int, int]]:
        return [(c, w1, w2) for c in range(len(self.single)) for w1 in sorted(self.single[c])
                for w2 in sorted(self.single[c]) if w1 != w2]

    def mult(self, a: int, b: int) -> int:
        return self.counts.get((min(a, b), max(a, b)), 0)

    def pick(self, index, bits, p5, p7):
        """The cells v1..v6 and v2's positions x2, x4 of a valid pick, or None."""
        lo, hi = self.doubles[index]
        v1, v2 = (hi, lo) if bits & 1 else (lo, hi)
        first, second = self.slot[lo, hi][::-1 if bits & 2 else 1]
        c = self.cells
        x2, x4 = (i if c[i] == v2 else i + 1 for i in (first, second))
        v3, v5, v4, v6 = c[p5], c[p5 ^ 1], c[p7], c[p7 ^ 1]
        if (len({v1, v2, v3, v4, v5, v6}) < 6 or self.mult(v3, v5) != 1
                or self.mult(v4, v6) != 1 or self.mult(v1, v3) or self.mult(v1, v4)
                or self.mult(v2, v5) or self.mult(v2, v6)):
            return None
        return (v1, v2, v3, v4, v5, v6), x2, x4

    def compatible(self, star, other) -> bool:
        """Whether ``other`` = (v2; v5, v6) completes ``star`` = (v1; v3, v4)
        to an inverse structure."""
        (v1, v3, v4), (v2, v5, v6) = star, other
        return (v2 != v1 and v2 not in self.near[v1]
                and v5 not in {v1, v3, v4} | self.near[v3]
                and v6 not in {v1, v3, v4} | self.near[v4])

    def undo(self, star, other):
        """The arrangement and the pick that an inverse structure undoes to."""
        (v1, v3, v4), (v2, v5, v6) = star, other
        c = list(self.cells)

        def position(a, b):
            i = self.slot[min(a, b), max(a, b)][0]
            return i if c[i] == b else i + 1

        x2, p5, x4, p7 = position(v1, v3), position(v5, v2), position(v1, v4), position(v6, v2)
        c[x2], c[p5], c[x4], c[p7] = v2, v3, v2, v4
        doubles = sorted(e for e, k in pair_counts(c).items() if k == 2)
        bits = (v1 > v2) | 2 * (x2 // 2 > x4 // 2)
        return c, (doubles.index((min(v1, v2), max(v1, v2))), bits, p5, p7)


def pairing_of(cells: list[int], n: int, d: int) -> generators._Pairing:
    """The switching state of a candidate, given its double keys in order."""
    doubles = [lo * n + hi for lo, hi in Arrangement(cells, n).doubles]
    return generators._Pairing(np.array(cells, dtype=np.int64), doubles, n, d)


def switched(cells: list[int], x2: int, x4: int, p5: int, p7: int) -> list[int]:
    c = list(cells)
    c[x2], c[p5] = c[p5], c[x2]
    c[x4], c[p7] = c[p7], c[x4]
    return c


class TestSwitchingExactness:
    """The double switching of generators._Pairing, checked exhaustively on
    candidates with one or two doubles: every valid pick is one inverse
    structure of its result, each inverse structure of a result undoes to a
    valid pick, and the fast |S| and N2 are the counts and keep their
    bounds."""

    @pytest.mark.parametrize("n, d, doubles, seed", [(16, 3, 1, 0), (20, 4, 1, 0),
                                                     (20, 4, 2, 1), (24, 3, 2, 2)])
    def test_picks_and_inverse_structures(self, n, d, doubles, seed):
        cells = shuffled_candidate(n, d, doubles, seed)
        full, conf, loss, _ = generators._bounds(n, d)
        s_min = full - loss * (doubles - 1)
        arr, pairing = Arrangement(cells, n), pairing_of(cells, n, d)
        size, valid = len(cells), []
        for index in range(doubles):
            for bits in range(4):
                for p5 in range(size):
                    for p7 in range(size):
                        got = pairing.pick(index, bits, p5, p7)
                        want = arr.pick(index, bits, p5, p7)
                        assert (got is None) == (want is None)
                        if got is not None:
                            assert (got[0], got[2], got[3]) == want
                            valid.append(((index, bits, p5, p7), got))
        assert valid
        for pick, got in valid:
            (v1, v2, v3, v4, v5, v6), _, x2, x4, _, _ = got
            result = switched(cells, x2, x4, pick[2], pick[3])
            res = Arrangement(result, n)
            assert {v3, v4} <= res.single[v1] and {v5, v6} <= res.single[v2]
            assert res.compatible((v1, v3, v4), (v2, v5, v6))
            assert res.undo((v1, v3, v4), (v2, v5, v6)) == (cells, pick)
        # three results: the fast counts and both bounds at every first
        # star, and 300 inverse structures, spread over all of them, undone
        # to a candidate of the same class whose pick switches back
        for pick, got in valid[::len(valid) // 3 + 1]:
            fast = pairing_of(cells, n, d)
            fast.switch(got)
            res = Arrangement(fast.cells, n)
            stars = res.stars()
            assert fast.stars == len(stars) >= s_min
            structures = []
            for first in stars:
                seconds = [o for o in stars if res.compatible(first, o)]
                assert fast.compatible_stars(*first) == len(seconds) >= s_min - conf >= 1
                structures += [(first, second) for second in seconds]
            for first, second in structures[::len(structures) // 300 + 1]:
                before, back = res.undo(first, second)
                counts = list(pair_counts(before).values())
                assert max(counts) == 2 and counts.count(2) == doubles
                assert all(a != b for a, b in zip(before[0::2], before[1::2]))
                again = pairing_of(before, n, d).pick(*back)
                assert again is not None
                assert switched(before, again[2], again[3], back[2], back[3]) == fast.cells


def stub_neighbours(cells: list[int], n: int) -> list[list[int]]:
    """Each node's neighbours once per stub, sorted, read off the slots."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(cells[0::2], cells[1::2]):
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(nb) for nb in nbrs]


class CheckedPairing(generators._Pairing):
    """A switching state that, after every switch, compares its incremental
    state with one rebuilt from its cells and with the definitions, and
    its N2 with the compatible stars listed one by one."""

    def __init__(self, *args):
        super().__init__(*args)
        self.switches = 0

    def switch(self, pick):
        super().switch(pick)
        self.switches += 1
        n, d = self.n, self.d
        fresh, arr = pairing_of(self.cells, n, d), Arrangement(self.cells, n)
        assert self.doubles == fresh.doubles == [lo * n + hi for lo, hi in arr.doubles]
        assert self.slots == fresh.slots == {lo * n + hi: [i // 2 for i in arr.slot[lo, hi]]
                                             for lo, hi in arr.doubles}
        assert self.single == fresh.single == [len(s) for s in arr.single]
        stars = arr.stars()
        assert self.stars == fresh.stars == len(stars)
        assert ([sorted(nb) for nb in self.nbrs] == [sorted(nb) for nb in fresh.nbrs]
                == stub_neighbours(self.cells, n))
        first = pick[0][0], pick[0][2], pick[0][3]
        assert (self.compatible_stars(*first) == fresh.compatible_stars(*first)
                == sum(arr.compatible(first, other) for other in stars))


# (n, d) with D >= 1, which needs n > 3d + 5
switching_settings = st.sampled_from(
    [(n, d) for d in (3, 4, 5) for n in range(3 * d + 6, 37) if n * d % 2 == 0])


@settings(max_examples=40, deadline=None)
@given(setting=switching_settings, seed=st.integers(0, 2**32 - 1),
       doubles=st.integers(1, 3))
def test_switching_state_matches_a_rebuild(setting, seed, doubles):
    # remove_doubles on one candidate with at most D doubles, on switching
    # streams until three switches are checked or 100 streams have run
    n, d = setting
    doubles = min(doubles, generators._bounds(n, d)[3])
    cells = shuffled_candidate(n, d, doubles, seed)
    keys = [lo * n + hi for lo, hi in Arrangement(cells, n).doubles]
    switches = 0
    for stream in range(100):
        if switches >= 3:
            break
        pairing = CheckedPairing(np.array(cells, dtype=np.int64), list(keys), n, d)
        pairing.remove_doubles(np.random.default_rng([seed, stream]))
        switches += pairing.switches
    assert switches >= 1


class ScriptedGenerator:
    """Stands in for the switching stream: ``integers(high)`` and ``random()``
    return the scripted values in order, each ``integers`` call naming the
    bound the script expects."""

    def __init__(self, script):
        self.script = list(script)

    def integers(self, high):
        name, bound, value = self.script.pop(0)
        assert (name, bound) == ("integers", high)
        return value

    def random(self):
        name, _, value = self.script.pop(0)
        assert name == "random"
        return value


class TestBRejection:
    """remove_doubles accepts a valid pick exactly when its two ``random()``
    values fall under S_min/|S| and c_min/N2, counted by definition. The
    candidate has three doubles, two of them at one node after the first
    switch, so that |S| > S_min there; later switches are scripted to be
    accepted."""

    n, d = 22, 4

    def first_valid(self, cells, m):
        arr, size = Arrangement(cells, self.n), len(cells)
        for index in range(m):
            for bits in range(4):
                for p5 in range(size):
                    for p7 in range(size):
                        got = arr.pick(index, bits, p5, p7)
                        if got is not None:
                            return (index, bits, p5, p7), got

    def steps(self, cells, m):
        """The integers of the first valid pick from class m, the cells it
        switches to, and the thresholds S_min/|S| and c_min/N2 there."""
        full, conf, loss, _ = generators._bounds(self.n, self.d)
        (index, bits, p5, p7), ((v1, _, v3, v4, _, _), x2, x4) = self.first_valid(cells, m)
        result = switched(cells, x2, x4, p5, p7)
        res = Arrangement(result, self.n)
        stars = res.stars()
        n2 = sum(res.compatible((v1, v3, v4), other) for other in stars)
        s_min = full - loss * (m - 1)
        draws = [("integers", m, index), ("integers", 4, bits),
                 ("integers", len(cells), p5), ("integers", len(cells), p7)]
        return draws, result, s_min / len(stars), (s_min - conf) / n2

    @pytest.mark.parametrize("over_s, over_c", [(False, False), (True, False), (False, True)])
    def test_accepts_exactly_under_both_thresholds(self, over_s, over_c):
        cells = shuffled_candidate(self.n, self.d, 3, 1)
        draws, last, a, b = self.steps(cells, 3)
        assert 0 < a < 1 and 0 < b < 1
        r1 = a * (1 + 1e-9) if over_s else a * (1 - 1e-9)
        r2 = b * (1 + 1e-9) if over_c else b * (1 - 1e-9)
        script = draws + [("random", None, r1)] + ([] if over_s else [("random", None, r2)])
        accepted = not (over_s or over_c)
        for m in (2, 1) if accepted else ():
            # the next switch is valid and accepted at 0
            draws, last, _, _ = self.steps(last, m)
            script += draws + [("random", None, 0.0), ("random", None, 0.0)]
        rng = ScriptedGenerator(script)
        pairing = pairing_of(cells, self.n, self.d)
        assert pairing.remove_doubles(rng) is accepted
        assert rng.script == []
        assert pairing.cells == last


def test_switching_state_stays_small(monkeypatch):
    # O(n*d) state: seed 2 at (20000, 3) switches three times, and the draw
    # peaks near 10 MB under tracemalloc; an n x n state would need 400 MB
    # at one byte a pair
    switches = []

    class Counting(generators._Pairing):
        def switch(self, pick):
            super().switch(pick)
            switches.append(pick)

    monkeypatch.setattr(generators, "_Pairing", Counting)
    tracemalloc.start()
    try:
        gen_d_regular(20_000, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(switches) == 3
    assert peak < 32 * 2**20


def triangle_count(edges) -> int:
    adjacent: dict[int, set[int]] = {}
    for u, v in edges:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    return sum(len(adjacent[u] & adjacent[v]) for u, v in edges) // 3


@pytest.mark.parametrize("n, d", [(16, 3), (24, 3)])
def test_triangle_counts_match_the_pairing_model(n, d):
    # a chi-square test of homogeneity between the triangle-count histograms
    # of 5,000 switching draws and 5,000 draws of the pure pairing model,
    # the uniform reference, on disjoint seeds; counts with fewer than 20
    # graphs above them are pooled into one bin
    size = 5000
    ours = [triangle_count(edge_list(g))
            for g in gen_d_regular_many(n, d, [child_seed(1, i) for i in range(size)])]
    pairing = [triangle_count(d_regular_sequential(n, d, child_seed(2, i))[0])
               for i in range(size)]
    top = 0
    while sum(t > top for t in ours + pairing) >= 20:
        top += 1
    table = [[sum(min(t, top) == k for t in sample) for k in range(top + 1)]
             for sample in (ours, pairing)]
    assert chi2_contingency(table).pvalue > 0.001


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
