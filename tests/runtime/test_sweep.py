"""Tests for the multi-core tiled kernel execution engine.

Five contract areas of ``repro.runtime.sweep`` and its
interpreter wiring:

* **sweep planning** — near-equal static slabs of the outermost dimension,
  each cut into cache boxes, that exactly cover the domain;
* **the pool** — boxes run concurrently on the shared pool, and the first
  exception a pool worker raises propagates;
* **dispatch and fallbacks** — tiled sweeps produce the oracle's results;
  refused tilings (no full-rank store, extent too small) fall back to the
  single-tile path and are counted; the dynamic alias guard still catches
  overlapping NumPy views of one base array;
* **the lowered benchmarks** — both apps replay through the oracle at
  several thread counts, two threads run the default cache-blocked plan
  within 1.35x of one, and four cores give >= 2x;
* **plumbing** — ``convert-scf-to-openmp`` builds ``omp.wsloop`` nests that
  carry no schedule clause, and the ``threads=`` knob reaches the
  interpreter through the backend options.
"""

import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.api import OpenMPOptions, OptionError
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, omp, stencil
from repro.harness import measured_openmp_scaling
from repro.ir import f64
from repro.runtime import Interpreter, MemoryBuffer, sweep
from repro.runtime.sweep import (
    get_executor,
    plan_boxes,
    plan_cache_boxes,
    plan_sweep,
    run_boxes,
)

# No __init__.py in the test tree: pytest imports sibling modules top-level.
from test_kernel_compiler import (build_average_module, build_shift_nest_module,
                                  run_average)


# ---------------------------------------------------------------------------
# Sweep planning
# ---------------------------------------------------------------------------


class TestPlanBoxes:
    def test_lexicographic_disjoint_exact_cover(self):
        boxes = plan_boxes((0, 0), (5, 7), (2, 3))
        assert boxes == [
            ((0, 0), (2, 3)), ((0, 3), (2, 6)), ((0, 6), (2, 7)),
            ((2, 0), (4, 3)), ((2, 3), (4, 6)), ((2, 6), (4, 7)),
            ((4, 0), (5, 3)), ((4, 3), (5, 6)), ((4, 6), (5, 7)),
        ]
        # Union is exactly the domain, each cell covered once.
        cover = np.zeros((5, 7), dtype=int)
        for lb, ub in boxes:
            cover[lb[0]:ub[0], lb[1]:ub[1]] += 1
        assert (cover == 1).all()

    def test_edge_boxes_are_clipped(self):
        boxes = plan_boxes((1,), (10,), (4,))
        assert boxes == [((1,), (5,)), ((5,), (9,)), ((9,), (10,))]

    def test_oversized_tile_is_one_box(self):
        assert plan_boxes((2, 2), (6, 6), (64, 64)) == [((2, 2), (6, 6))]

    def test_empty_domain(self):
        assert plan_boxes((0, 0), (4, 0), (2, 2)) == []
        assert plan_boxes((3,), (3,), (1,)) == []

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            plan_boxes((0, 0), (4, 4), (2,))

    def test_non_positive_sizes_rejected(self):
        with pytest.raises(ValueError, match="must be positive"):
            plan_boxes((0,), (4,), (0,))


class TestPlanCacheBoxes:
    """The default plan: boxes of at most budget / (8 B x arrays) points."""

    F_STRIDES, C_STRIDES = (8, 800, 80000), (80000, 800, 8)

    def test_under_budget_is_one_box(self, monkeypatch):
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", 30 ** 3 * 8 * 8)
        assert plan_cache_boxes((1, 1, 1), (31, 31, 31), self.F_STRIDES, 8) == \
            [((1, 1, 1), (31, 31, 31))]
        assert len(plan_cache_boxes((1, 1, 1), (31, 31, 31), self.F_STRIDES, 9)) > 1

    @pytest.mark.parametrize("strides,whole", [(F_STRIDES, 0), (C_STRIDES, 2)])
    def test_cuts_largest_strides_first_and_never_the_unit_stride(
            self, monkeypatch, strides, whole):
        lowers, uppers = (1, 1, 1), (95, 95, 95)
        outer = 2 - whole                  # the largest-stride dimension
        # Room for four planes: only the outermost dimension is cut, evenly.
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES",
                            94 * 94 * 4 * 8 * 5)
        boxes = plan_cache_boxes(lowers, uppers, strides, 5)
        assert len(boxes) == 24
        assert {ub[outer] - lb[outer] for lb, ub in boxes} == {4, 2}
        assert all((lb[1], ub[1]) == (1, 95) for lb, ub in boxes)
        # Not even one plane fits: the middle dimension is cut as well, and
        # below one row the unit-stride dimension still stays whole.
        for budget in (94 * 10 * 8 * 5, 64):
            monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", budget)
            boxes = plan_cache_boxes(lowers, uppers, strides, 5)
            assert all(ub[outer] - lb[outer] == 1 for lb, ub in boxes)
            assert all((lb[whole], ub[whole]) == (1, 95) for lb, ub in boxes)
            cover = np.zeros((96, 96, 96), dtype=np.int8)
            for lb, ub in boxes:
                cover[lb[0]:ub[0], lb[1]:ub[1], lb[2]:ub[2]] += 1
            assert (cover[1:95, 1:95, 1:95] == 1).all() and cover.sum() == 94 ** 3

    def test_rank_one_and_empty_domains_are_never_cut(self, monkeypatch):
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", 64)
        assert plan_cache_boxes((0,), (1000,), (8,), 4) == [((0,), (1000,))]
        assert plan_cache_boxes((0, 3), (10, 3), (8, 80), 4) == []


class TestPlanSweep:
    """The composed plan: thread slabs along the outermost dimension, each
    cut into cache boxes."""

    F_STRIDES, C_STRIDES = (8, 96, 1152), (1152, 96, 8)
    LOWERS, UPPERS = (1, 1, 1), (11, 11, 11)

    def test_one_thread_under_budget_is_the_whole_domain(self):
        assert plan_sweep(self.LOWERS, self.UPPERS, strides=self.F_STRIDES) == \
            ([(self.LOWERS, self.UPPERS)], 1, None)
        assert plan_sweep(self.LOWERS, self.UPPERS) == \
            ([(self.LOWERS, self.UPPERS)], 1, None)
        assert plan_sweep((1, 4), (9, 4), threads=2, strides=(8, 80)) == ([], 0, None)

    #: rank -> (lowers, uppers, Fortran-order strides) of the fixed plans.
    DOMAINS = {
        1: ((2,), (13,), (8,)),
        2: ((1, 1), (7, 5), (8, 56)),
        3: ((1, 1, 1), (5, 6, 4), (8, 40, 240)),
    }
    #: (rank, strided) -> the slab counts and boxes for threads 1..8, with
    #: 16-point cache boxes; a box is "lo:up" per dimension.
    FIXED_PLANS = {
        (1, False): ([1, 2, 3, 4, 5, 6, 7, 8], [
            "2:13",
            "2:8 8:13",
            "2:6 6:10 10:13",
            "2:5 5:8 8:11 11:13",
            "2:5 5:7 7:9 9:11 11:13",
            "2:4 4:6 6:8 8:10 10:12 12:13",
            "2:4 4:6 6:8 8:10 10:11 11:12 12:13",
            "2:4 4:6 6:8 8:9 9:10 10:11 11:12 12:13",
        ]),
        (1, True): ([1, 2, 3, 4, 5, 6, 7, 8], [
            "2:13",
            "2:8 8:13",
            "2:6 6:10 10:13",
            "2:5 5:8 8:11 11:13",
            "2:5 5:7 7:9 9:11 11:13",
            "2:4 4:6 6:8 8:10 10:12 12:13",
            "2:4 4:6 6:8 8:10 10:11 11:12 12:13",
            "2:4 4:6 6:8 8:9 9:10 10:11 11:12 12:13",
        ]),
        (2, False): ([1, 2, 3, 4, 5, 6, 6, 6], [
            "1:7,1:5",
            "1:4,1:5 4:7,1:5",
            "1:3,1:5 3:5,1:5 5:7,1:5",
            "1:3,1:5 3:5,1:5 5:6,1:5 6:7,1:5",
            "1:3,1:5 3:4,1:5 4:5,1:5 5:6,1:5 6:7,1:5",
            "1:2,1:5 2:3,1:5 3:4,1:5 4:5,1:5 5:6,1:5 6:7,1:5",
            "1:2,1:5 2:3,1:5 3:4,1:5 4:5,1:5 5:6,1:5 6:7,1:5",
            "1:2,1:5 2:3,1:5 3:4,1:5 4:5,1:5 5:6,1:5 6:7,1:5",
        ]),
        (2, True): ([1, 2, 3, 4, 4, 4, 4, 4], [
            "1:7,1:3 1:7,3:5",
            "1:7,1:3 1:7,3:5",
            "1:7,1:3 1:7,3:4 1:7,4:5",
            "1:7,1:2 1:7,2:3 1:7,3:4 1:7,4:5",
            "1:7,1:2 1:7,2:3 1:7,3:4 1:7,4:5",
            "1:7,1:2 1:7,2:3 1:7,3:4 1:7,4:5",
            "1:7,1:2 1:7,2:3 1:7,3:4 1:7,4:5",
            "1:7,1:2 1:7,2:3 1:7,3:4 1:7,4:5",
        ]),
        (3, False): ([1, 2, 3, 4, 4, 4, 4, 4], [
            "1:5,1:6,1:4",
            "1:3,1:6,1:4 3:5,1:6,1:4",
            "1:3,1:6,1:4 3:4,1:6,1:4 4:5,1:6,1:4",
            "1:2,1:6,1:4 2:3,1:6,1:4 3:4,1:6,1:4 4:5,1:6,1:4",
            "1:2,1:6,1:4 2:3,1:6,1:4 3:4,1:6,1:4 4:5,1:6,1:4",
            "1:2,1:6,1:4 2:3,1:6,1:4 3:4,1:6,1:4 4:5,1:6,1:4",
            "1:2,1:6,1:4 2:3,1:6,1:4 3:4,1:6,1:4 4:5,1:6,1:4",
            "1:2,1:6,1:4 2:3,1:6,1:4 3:4,1:6,1:4 4:5,1:6,1:4",
        ]),
        (3, True): ([1, 2, 3, 3, 3, 3, 3, 3], [
            "1:5,1:4,1:2 1:5,1:4,2:3 1:5,1:4,3:4 1:5,4:6,1:2 1:5,4:6,2:3 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,1:4,2:3 1:5,4:6,1:2 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,4:6,1:2 1:5,1:4,2:3 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,4:6,1:2 1:5,1:4,2:3 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,4:6,1:2 1:5,1:4,2:3 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,4:6,1:2 1:5,1:4,2:3 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,4:6,1:2 1:5,1:4,2:3 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
            "1:5,1:4,1:2 1:5,4:6,1:2 1:5,1:4,2:3 1:5,4:6,2:3 1:5,1:4,3:4 1:5,4:6,3:4",
        ]),
    }

    @pytest.mark.parametrize("rank,strided", list(FIXED_PLANS))
    def test_plans_are_the_fixed_static_plans(self, rank, strided):
        """Every thread count 1..8 cuts exactly these slabs and boxes."""
        lowers, uppers, strides = self.DOMAINS[rank]
        slab_counts, encoded = self.FIXED_PLANS[rank, strided]
        for threads, slabs, text in zip(range(1, 9), slab_counts, encoded):
            expected = [tuple(zip(*(map(int, span.split(":"))
                                    for span in box.split(","))))
                        for box in text.split()]
            shape = "cache" if len(expected) > slabs else None
            assert plan_sweep(lowers, uppers, threads,
                              strides=strides if strided else None,
                              arrays=2 ** 14) == (expected, slabs, shape), threads

    @pytest.mark.parametrize("strides,outer", [
        (F_STRIDES, 2), (C_STRIDES, 0), ((96, 1152, 8), 1), (None, 0)])
    def test_slabs_cut_the_largest_stride_dimension(self, strides, outer):
        boxes, slabs, shape = plan_sweep(self.LOWERS, self.UPPERS, threads=2,
                                         strides=strides)
        assert (slabs, shape) == (2, None)
        for (lb, ub), span in zip(boxes, [(1, 6), (6, 11)]):
            assert (lb[outer], ub[outer]) == span
            assert all((lb[d], ub[d]) == (1, 11) for d in range(3) if d != outer)

    def test_static_slabs_split_evenly(self):
        boxes, slabs, _ = plan_sweep((0,), (100,), threads=4)
        assert slabs == 4
        assert boxes == [((0,), (25,)), ((25,), (50,)), ((50,), (75,)),
                         ((75,), (100,))]

    def test_static_slabs_spread_the_remainder_over_the_first(self):
        boxes, slabs, _ = plan_sweep((1,), (11,), threads=4)  # extent 10
        assert slabs == 4
        assert boxes == [((1,), (4,)), ((4,), (7,)), ((7,), (9,)), ((9,), (11,))]

    def test_static_slabs_never_exceed_the_extent(self):
        boxes, slabs, _ = plan_sweep((0,), (3,), threads=8)
        assert slabs == 3
        assert boxes == [((0,), (1,)), ((1,), (2,)), ((2,), (3,))]

    def test_an_empty_extent_has_no_slabs(self):
        assert plan_sweep((5,), (5,), threads=4) == ([], 0, None)
        assert plan_sweep((7,), (3,), threads=4) == ([], 0, None)

    @pytest.mark.parametrize("strides", [F_STRIDES, C_STRIDES], ids=["F", "C"])
    def test_threaded_boxes_partition_the_domain(self, strides, monkeypatch):
        # Half a plane fits: every slab is cut again.
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", 1200)
        boxes, slabs, shape = plan_sweep(
            self.LOWERS, self.UPPERS, threads=3, strides=strides, arrays=3)
        assert slabs == 3 and len(boxes) > slabs
        assert shape == "cache"
        cover = np.zeros((12, 12, 12), dtype=int)
        for lb, ub in boxes:
            cover[lb[0]:ub[0], lb[1]:ub[1], lb[2]:ub[2]] += 1
        assert (cover[1:11, 1:11, 1:11] == 1).all() and cover.sum() == 1000
        # Cache boxes never cut the unit-stride dimension.
        whole = 0 if strides is self.F_STRIDES else 2
        assert all((lb[whole], ub[whole]) == (1, 11) for lb, ub in boxes)

    @pytest.mark.parametrize("threads", [1, 2, 3, 5, 8, 12])
    @pytest.mark.parametrize("strides", [F_STRIDES, C_STRIDES], ids=["F", "C"])
    def test_every_thread_count_cuts_static_slabs_into_cache_boxes(
            self, strides, threads, monkeypatch):
        """Any thread count gives min(threads, extent) near-equal slabs of the
        outermost dimension, the first ones a plane thicker; each slab's
        cache boxes stay inside it, slab by slab, and cover it once."""
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", 1200)
        boxes, slabs, shape = plan_sweep(
            self.LOWERS, self.UPPERS, threads=threads, strides=strides, arrays=3)
        assert (slabs, shape) == (min(threads, 10), "cache")
        outer, whole = (2, 0) if strides is self.F_STRIDES else (0, 2)
        base, extra = divmod(10, slabs)
        edges = np.cumsum([1] + [base + (i < extra) for i in range(slabs)])
        spans = list(zip(edges[:-1], edges[1:]))
        owner = [next((i for i, (lo, up) in enumerate(spans)
                       if lo <= lb[outer] and ub[outer] <= up), None)
                 for lb, ub in boxes]
        assert None not in owner
        assert owner == sorted(owner) and set(owner) == set(range(slabs))
        cover = np.zeros((12, 12, 12), dtype=int)
        for lb, ub in boxes:
            cover[lb[0]:ub[0], lb[1]:ub[1], lb[2]:ub[2]] += 1
        assert (cover[1:11, 1:11, 1:11] == 1).all() and cover.sum() == 1000
        assert all((lb[whole], ub[whole]) == (1, 11) for lb, ub in boxes)


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------


class TestThePool:
    def test_run_boxes_propagates_a_pool_workers_exception(self, cpus):
        cpus(2)

        def boom(externals, lb, ub, chosen):
            raise RuntimeError(
                f"box {lb} failed on {threading.current_thread().name}")

        kernel = SimpleNamespace(fn=boom)
        boxes = [((0,), (1,)), ((1,), (2,))]
        with pytest.raises(RuntimeError,
                           match=r"box \(0,\) failed on repro-tile"):
            run_boxes(kernel, [], boxes, threads=2)

    def test_get_executor_shares_pools(self):
        assert get_executor(3) is get_executor(3)
        assert get_executor(3) is not get_executor(5)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(k)``: the process may run on k CPUs (its affinity mask)."""
    def pin(count):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(count)), raising=False)
    return pin


def recording(kernel, seen, meet=1):
    """``kernel`` whose boxes record the thread that runs them and the peak
    of boxes in flight; with ``meet`` > 1 a box waits until that many run."""
    lock = threading.Lock()
    barrier = threading.Barrier(meet, timeout=10) if meet > 1 else None
    live = [0]

    def fn(externals, lb, ub, chosen):
        with lock:
            live[0] += 1
            seen["peak"] = max(seen.get("peak", 0), live[0])
            seen.setdefault("threads", set()).add(threading.get_ident())
        try:
            if barrier is not None:
                barrier.wait()
            return kernel.fn(externals, lb, ub, chosen)
        finally:
            with lock:
                live[0] -= 1

    return SimpleNamespace(fn=fn)


class TestDispatchFollowsTheCpus:
    """``run_boxes`` keeps at most ``min(threads, CPUs)`` boxes in flight,
    reading the affinity mask at every dispatch; the plan and the counters
    follow ``threads`` alone."""

    @pytest.mark.parametrize("threads, count, workers",
                             [(2, 1, 1), (4, 2, 2), (2, 8, 2)])
    def test_boxes_in_flight_are_capped_by_the_cpus(self, cpus, threads,
                                                   count, workers):
        cpus(count)
        seen = {}
        kernel = recording(SimpleNamespace(fn=lambda *args: None),
                           seen, meet=workers)
        boxes = [((i,), (i + 1,)) for i in range(8)]
        run_boxes(kernel, [], boxes, threads)
        assert seen["peak"] == workers == len(seen["threads"])
        assert (seen["threads"] == {threading.get_ident()}) == (workers == 1)

    def test_one_cpu_runs_every_box_in_order_and_changes_no_bit(
            self, cpus, monkeypatch):
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", 2048)
        n = 12
        handle = repro.Session().lower(
            gauss_seidel.generate_source(n, niters=2), "openmp",
            lower_to_scf=True, execution_mode="vectorize")
        seen = {}
        meet = [1]
        real = sweep.run_boxes
        monkeypatch.setattr(
            sweep, "run_boxes",
            lambda kernel, *rest: real(recording(kernel, seen, meet[0]), *rest))
        runs = {}
        # Two CPUs last: two boxes then meet, so both workers must take one.
        for label, count, threads in (("one thread", 2, 1),
                                      ("one cpu", 1, 2), ("two cpus", 2, 2)):
            cpus(count)
            seen.clear()
            meet[0] = 2 if label == "two cpus" else 1
            u = gauss_seidel.initial_condition(n)
            stats = handle.with_options(threads=threads).run("gauss_seidel", u).stats
            runs[label] = (u.tobytes(), seen["threads"], {
                key: stats[key] for key in
                ("parallel_sweeps", "parallel_tiles", "cache_tiles")})
        main = {threading.get_ident()}
        assert runs["one thread"][0] == runs["one cpu"][0] == runs["two cpus"][0]
        assert runs["one thread"][1] == runs["one cpu"][1] == main
        assert len(runs["two cpus"][1]) == 2 and not runs["two cpus"][1] & main
        assert runs["one cpu"][2] == runs["two cpus"][2]
        assert runs["one cpu"][2]["parallel_tiles"] == 4
        assert runs["one cpu"][2]["cache_tiles"] > 4

    def test_ranks_still_run_together_on_one_cpu(self, cpus):
        """Ranks block on each other's halos, so their pool keeps every rank
        live whatever the CPUs: capped like boxes, a 2x2 grid on one CPU
        would wait out its receive timeout."""
        field = np.asfortranarray(
            np.random.default_rng(7).random((12, 12, 6)))
        plan = repro.Session().lower(
            gauss_seidel.generate_source_shaped((8, 8, 8)), "dmp",
            grid=(2, 2), execution_mode="vectorize").distribute(
            source_builder=gauss_seidel.generate_source_shaped, timeout=5)
        want = plan.run(field.copy(order="F"), iterations=2)
        cpus(1)
        got = plan.run(field.copy(order="F"), iterations=2)
        assert got.field.tobytes() == want.field.tobytes()
        assert (got.messages, got.bytes) == (want.messages, want.bytes) != (0, 0)


# ---------------------------------------------------------------------------
# Tiled dispatch through the interpreter
# ---------------------------------------------------------------------------


class TestTiledNestExecution:
    def test_tiled_nest_matches_reference(self):
        module, fn = build_shift_nest_module(n=32)
        rng = np.random.default_rng(0)
        src = np.asfortranarray(rng.random((32, 32)))
        dst = np.zeros((32, 32), order="F")
        interp = Interpreter([module], execution_mode="vectorize", threads=4)
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["parallel_sweeps"] == 1
        assert interp.stats["parallel_tiles"] == 4
        assert interp.stats["parallel_fallbacks"] == 0
        assert np.allclose(dst[1:31, 1:31], src[0:30, 1:31] * 2.0)

    def test_single_thread_never_touches_the_pool(self):
        module, fn = build_shift_nest_module(n=8)
        dst = np.zeros((8, 8), order="F")
        src = np.asfortranarray(np.random.default_rng(1).random((8, 8)))
        interp = Interpreter([module], execution_mode="vectorize")
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["vectorized_sweeps"] == 1
        assert interp.stats["parallel_sweeps"] == 0
        assert interp.stats["parallel_fallbacks"] == 0

    def test_small_extent_counts_parallel_fallback(self):
        """An outermost extent of 1 cannot be split: the sweep must still
        vectorize single-tile and the refusal must be counted."""
        module, fn = build_shift_nest_module(n=3)  # domain [1, 2): extent 1
        dst = np.zeros((3, 3), order="F")
        src = np.asfortranarray(np.random.default_rng(2).random((3, 3)))
        interp = Interpreter([module], execution_mode="vectorize", threads=4)
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["vectorized_sweeps"] == 1
        assert interp.stats["parallel_sweeps"] == 0
        assert interp.stats["parallel_fallbacks"] == 1

    def test_overlapping_views_fall_back_to_scalar(self):
        """The dynamic alias guard must catch *views*: two slices of one base
        array share memory even though they are distinct ndarray objects, and
        np.may_share_memory is the only way to see it.  The sweep must run on
        the scalar path (and certainly never be tiled)."""
        module, fn = build_shift_nest_module(n=6)
        backing = np.asfortranarray(np.random.default_rng(3).random((7, 6)))
        dst_view = backing[:-1, :]   # rows 0..5
        src_view = backing[1:, :]    # rows 1..6: overlaps dst in rows 1..5
        assert np.may_share_memory(dst_view, src_view)
        expected = backing.copy(order="F")
        for i in range(1, 5):  # scalar semantics of dst[i,j] = src[i-1,j]*2
            for j in range(1, 5):
                expected[:-1][i, j] = expected[1:][i - 1, j] * 2.0
        interp = Interpreter([module], execution_mode="vectorize", threads=4)
        interp.call_function(
            fn, [MemoryBuffer.wrap(dst_view), MemoryBuffer.wrap(src_view)]
        )
        assert interp.stats["vectorize_fallbacks"] == 1
        assert interp.stats["vectorized_sweeps"] == 0
        assert interp.stats["parallel_sweeps"] == 0
        assert np.allclose(backing, expected)

    def test_crosscheck_with_threads_on_tiled_nest(self):
        module, fn = build_shift_nest_module(n=24)
        dst = np.zeros((24, 24), order="F")
        src = np.asfortranarray(np.random.default_rng(4).random((24, 24)))
        interp = Interpreter([module], execution_mode="crosscheck", threads=3)
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["parallel_sweeps"] == 1
        assert np.allclose(dst[1:23, 1:23], src[0:22, 1:23] * 2.0)


class TestTiledApplyExecution:
    def test_a_lowered_apply_tiles_on_four_threads(self):
        n = 16
        module, _ = build_average_module(n)
        data = np.asfortranarray(np.random.default_rng(5).random((n, n)))
        tiled, interp = run_average(module, data, "vectorize", threads=4)
        expected = (data[0:n - 2, 1:n - 1] + data[2:n, 1:n - 1]) * 0.5
        assert interp.stats["parallel_sweeps"] == 1
        assert interp.stats["parallel_tiles"] == 4
        assert tiled[1:n - 1, 1:n - 1].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_a_tiled_sweep_stores_what_the_untiled_one_does(self, order,
                                                            monkeypatch):
        """Every box stores in place, into a destination laid out as the
        inputs are: under a 256-byte budget the 10 x 10 sweep is ten
        one-row boxes along the largest-stride axis, whichever that is."""
        n = 12
        data = np.array(np.random.default_rng(6).random((n, n)), order=order)
        results = []
        for budget, boxes in ((sweep.CACHE_BUDGET_BYTES, 0), (256, 10)):
            monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", budget)
            module, _ = build_average_module(n)
            result, interp = run_average(module, data, "vectorize")
            assert interp.stats["cache_tiles"] == boxes
            results.append(result)
        untiled, tiled = results
        assert tiled.tobytes() == untiled.tobytes()
        assert tiled.flags[f"{order}_CONTIGUOUS"]

    @pytest.mark.parametrize("threads", [2, 4])
    def test_a_nest_that_loads_nothing_tiles(self, threads):
        """A constant or the point's own indices, stored over the domain: no
        array is read, yet the store target's strides cut thread slabs and
        every slab matches the oracle."""
        n = 12

        def constant(inner, arg, outer):
            return inner.insert(arith.ConstantOp.from_float(4.0)).results[0]

        def indices(inner, arg, outer):
            row, column = (inner.insert(arith.SIToFPOp(
                inner.insert(stencil.IndexOp(dim)).results[0], f64)).results[0]
                for dim in (0, 1))
            return inner.insert(arith.AddfOp(row, column)).results[0]

        data = np.zeros((n, n), order="F")
        for body in (constant, indices):
            module, nest = build_average_module(n, body=body)
            oracle, _ = run_average(module, data, "interpret")
            tiled, interp = run_average(module, data, "crosscheck", threads=threads)
            assert tiled.tobytes() == oracle.tobytes()
            assert interp.kernels.kernel_for(nest).kernel.loads == ()
            assert interp.stats["parallel_sweeps"] == 1
            assert interp.stats["parallel_tiles"] == threads
            assert interp.stats["parallel_fallbacks"] == 0
        assert (tiled[1:-1, 1:-1] == np.add.outer(np.arange(1, n - 1),
                                                  np.arange(1, n - 1))).all()

    def test_cpu_crosscheck_with_threads(self):
        n = 16
        result = repro.compile(gauss_seidel.generate_source(n, niters=2)).lower("cpu")
        u = gauss_seidel.initial_condition(n)
        interp = result.with_options(
            execution_mode="crosscheck", threads=4).interpreter()
        interp.call("gauss_seidel", u)
        assert interp.stats["parallel_sweeps"] >= 1
        reference = gauss_seidel.reference_jacobi(
            gauss_seidel.initial_condition(n), 2)
        assert np.allclose(u, reference)


# ---------------------------------------------------------------------------
# The lowered benchmarks on more than one thread
# ---------------------------------------------------------------------------


class TestLoweredBenchmarksThreaded:
    @pytest.mark.parametrize("threads", [3, 4, 5])
    def test_crosscheck_passes_with_threads_gs(self, threads):
        """Tiled parallel sweeps of the lowered Gauss-Seidel replay through the
        scalar oracle, with even and uneven slabs."""
        n = 18
        result = repro.compile(
            gauss_seidel.generate_source(n, niters=2)
        ).lower("openmp", lower_to_scf=True)
        u = gauss_seidel.initial_condition(n)
        interp = result.with_options(
            execution_mode="crosscheck", threads=threads).interpreter()
        interp.call("gauss_seidel", u)
        assert interp.stats["parallel_sweeps"] >= 1
        reference = gauss_seidel.reference_jacobi(gauss_seidel.initial_condition(n), 2)
        assert np.allclose(u, reference)

    def test_crosscheck_passes_with_threads_pw(self):
        """Every tiled parallel sweep of the lowered PW advection replays through
        the scalar oracle at threads=4 without divergence."""
        n = 14
        result = repro.compile(
            pw_advection.generate_source(n)
        ).lower("openmp", lower_to_scf=True)
        fields = [f.copy(order="F") for f in pw_advection.initial_fields(n)]
        interp = result.with_options(
            execution_mode="crosscheck", threads=4).interpreter()
        interp.call("pw_advection", *fields)
        assert interp.stats["vectorized_sweeps"] >= 1
        assert interp.stats["parallel_sweeps"] >= 1
        assert interp.stats["parallel_tiles"] >= 2 * interp.stats["parallel_sweeps"]
        u, v, w = pw_advection.initial_fields(n)[:3]
        rsu, rsv, rsw = pw_advection.reference(u, v, w)
        for field, ref in zip(fields[3:], (rsu, rsv, rsw)):
            assert np.allclose(field, ref)

    @pytest.mark.parametrize("threads", [2, 3, 5, 8])
    @pytest.mark.parametrize("app", ["gs", "pw"])
    def test_the_slab_count_changes_no_bit(self, app, threads):
        """Slabs only share a sweep out: both lowered apps give the bits of
        the one-thread run at any thread count, even and uneven splits alike."""
        n = 14
        if app == "gs":
            source, entry = gauss_seidel.generate_source(n, niters=2), "gauss_seidel"
            make_args = lambda: [gauss_seidel.initial_condition(n)]
        else:
            source, entry = pw_advection.generate_source(n), "pw_advection"
            make_args = lambda: [f.copy(order="F")
                                 for f in pw_advection.initial_fields(n)]
        handle = repro.compile(source).lower("openmp", lower_to_scf=True)

        def run(threads):
            args = make_args()
            interp = handle.with_options(
                execution_mode="vectorize", threads=threads).run(entry, *args)
            return b"".join(a.tobytes() for a in args), interp.stats

        one, _ = run(1)
        many, stats = run(threads)
        assert stats["parallel_sweeps"] >= 1
        assert stats["parallel_tiles"] >= 2 * stats["parallel_sweeps"]
        assert many == one

    def test_two_threads_run_the_default_plan_too(self):
        """A thread count shapes *who* runs the boxes, not *how big* they are:
        at n=96 the thread slabs are cache-blocked like the single-thread sweep,
        so asking for two threads must not cost more than the pool's dispatch
        (it cost 1.5-1.6x while thread tiles cut the unit-stride axis and
        switched the cache boxes off)."""
        n, niters = 96, 10
        handle = repro.Session().compile(
            gauss_seidel.generate_source(n, niters=niters)
        ).lower("openmp", lower_to_scf=True)
        reference = gauss_seidel.reference_jacobi(
            gauss_seidel.initial_condition(n), niters)

        interps = {threads: handle.with_options(
            execution_mode="vectorize", threads=threads).interpreter()
            for threads in (1, 2)}
        best = dict.fromkeys(interps, float("inf"))
        # The first round warms each kernel; the five timed rounds alternate
        # the sides, so a burst of host load falls on both alike.
        for repeat in range(6):
            for threads, interp in interps.items():
                u = gauss_seidel.initial_condition(n)
                start = time.perf_counter()
                interp.call("gauss_seidel", u)
                if repeat:
                    best[threads] = min(best[threads], time.perf_counter() - start)
                assert u.tobytes() == reference.tobytes()
        one_s, two_s, stats = best[1], best[2], interps[2].stats
        assert stats["parallel_tiles"] > 0 and stats["cache_tiles"] > 0
        assert two_s <= one_s * 1.35, (
            f"lowered gauss_seidel n={n}: threads=2 {two_s * 1e3:.1f} ms vs "
            f"threads=1 {one_s * 1e3:.1f} ms")

    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="needs >= 4 cores to demonstrate parallel speedup")
    @pytest.mark.skipif(bool(os.environ.get("CI")),
                        reason="wall-clock threshold; shared CI runners are too "
                               "noisy for a hard 2x timing assertion")
    def test_tiled_parallel_speedup_at_4_threads(self):
        """The 4-thread tiled backend is >= 2x faster than the 1-thread
        vectorized backend on the lowered PW-advection sweep."""
        result = measured_openmp_scaling("pw_advection", thread_counts=(1, 4), n=96)
        seconds = {row[1]: row[2] for row in result.rows}
        speedup = {row[1]: row[4] for row in result.rows}
        assert result.notes["threads=4"]["parallel_sweeps"] >= 1
        assert speedup[4] >= 2.0, (
            f"4-thread tiled execution only {speedup[4]:.2f}x faster "
            f"({seconds[1]:.4f}s vs {seconds[4]:.4f}s)"
        )


# ---------------------------------------------------------------------------
# OpenMP plumbing and the threads knob
# ---------------------------------------------------------------------------


class TestOpenMPPlumbing:
    def test_the_wsloop_carries_no_schedule_clause(self):
        result = repro.compile(gauss_seidel.generate_source(10, niters=1)).lower(
            "openmp", lower_to_scf=True)
        wsloop = next(op for op in result.stencil_module.walk()
                      if isinstance(op, omp.WsLoopOp))
        assert set(wsloop.attributes) == {"rank"}

    @pytest.mark.parametrize("threads", [0, True])
    def test_invalid_threads_rejected(self, threads):
        with pytest.raises(OptionError, match="threads"):
            OpenMPOptions(threads=threads)

    def test_threads_knob_through_options_and_override(self):
        result = repro.compile(gauss_seidel.generate_source(8, niters=1)).lower(
            "cpu", execution_mode="vectorize", threads=3)
        assert result.interpreter().threads == 3
        assert result.with_options(threads=1).interpreter().threads == 1
        assert result.with_options(threads=2).interpreter().threads == 2


# ---------------------------------------------------------------------------
# Per-kernel runtime statistics
# ---------------------------------------------------------------------------


class TestKernelRuntimeStats:
    def test_per_kernel_invocations_and_seconds(self):
        niters = 3
        result = repro.compile(
            gauss_seidel.generate_source(12, niters=niters)).lower("cpu")
        interp = result.with_options(execution_mode="vectorize").interpreter()
        interp.call("gauss_seidel", gauss_seidel.initial_condition(12))
        per_kernel = interp.kernels.stats["per_kernel"]
        assert len(per_kernel) == 1
        [(label, entry)] = per_kernel.items()
        assert label.startswith("scf.parallel@")
        assert entry["invocations"] == niters
        assert entry["seconds"] >= 0.0

    def test_kernel_stats_table_renders(self):
        from repro.harness import kernel_stats_table

        result = repro.compile(
            gauss_seidel.generate_source(10, niters=1)).lower("cpu")
        interp = result.with_options(execution_mode="vectorize").interpreter()
        interp.call("gauss_seidel", gauss_seidel.initial_condition(10))
        table = kernel_stats_table(interp.kernels)
        assert "scf.parallel@" in table
        assert "invocations" in table and "total_s" in table

    def test_empty_stats_table(self):
        from repro.harness import kernel_stats_table
        from repro.runtime import KernelCompiler

        assert "no kernels executed" in kernel_stats_table(KernelCompiler())
