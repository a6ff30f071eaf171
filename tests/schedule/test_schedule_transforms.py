"""Tests for the schedule IR rewrites and their runtime execution paths.

Two contract areas below the fluent ``Schedule`` layer:

* **structural rejection** — directives a kernel's loop structure cannot
  carry (wrong tile rank, permutation deeper than the serial nest, a
  non-dividing unroll factor, loop directives at the stencil level without
  ``lower_to_scf``, re-tiling an already tiled chain) raise
  :class:`ScheduleError` *at derivation time*, naming the kernel;
* **box execution** — a ``schedule.tile`` annotation routes the sweep
  through the runtime's box planner: tiles are counted in interpreter
  stats, results stay bitwise-identical to the untiled run, and the
  threaded nest path distributes boxes without changing a single bit.

Plus a smoke run of the schedule fuzz farm (``python -m repro.fuzz
--schedules``) proving the wiring end to end.
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.fuzz import Farm
from repro.fuzz.schedules import (
    ScheduleRunner,
    default_schedule_matrix,
    summary_line,
)
from repro.fuzz.generator import DEFAULT_CONFIG, generate_spec
from repro.schedule import ScheduleError


@pytest.fixture
def session():
    return repro.Session()


# ---------------------------------------------------------------------------
# Structural rejection at derivation time
# ---------------------------------------------------------------------------


class TestStructuralRejection:
    def test_tile_rank_mismatch_names_the_kernel(self, session,
                                                 small_gs_source):
        with pytest.raises(ScheduleError,
                           match=r"tile: kernel '\S+' .* got 2 tile sizes"):
            session.compile(small_gs_source).lower(
                "cpu", lower_to_scf=True).schedule().tile(4, 4)

    def test_stencil_level_reorder_requires_scf(self, session,
                                                small_gs_source):
        with pytest.raises(ScheduleError,
                           match="reorder: requires lower_to_scf=True"):
            session.compile(small_gs_source).lower("cpu") \
                   .schedule().reorder(1, 0)

    def test_stencil_level_unroll_requires_scf(self, session,
                                               small_gs_source):
        with pytest.raises(ScheduleError,
                           match="unroll: requires lower_to_scf=True"):
            session.compile(small_gs_source).lower("cpu") \
                   .schedule().unroll(0, 2)

    def test_reorder_deeper_than_serial_nest(self, session, small_gs_source):
        # GS under scf has 2 serial loops below the parallel dimension; a
        # length-3 permutation cannot apply (parallel dims don't reorder).
        with pytest.raises(ScheduleError,
                           match=r"has only 2 serial loop\(s\)"):
            session.compile(small_gs_source).lower(
                "cpu", lower_to_scf=True).schedule().reorder(2, 0, 1)

    def test_unroll_non_dividing_factor(self, session, small_gs_source):
        # The interior extent is 8; factor 3 does not divide it.
        with pytest.raises(ScheduleError,
                           match="factor 3 does not divide the trip count 8"):
            session.compile(small_gs_source).lower(
                "cpu", lower_to_scf=True).schedule().unroll(0, 3)

    def test_unroll_loop_index_out_of_range(self, session, small_gs_source):
        with pytest.raises(ScheduleError, match="loop index 5 is out of"):
            session.compile(small_gs_source).lower(
                "cpu", lower_to_scf=True).schedule().unroll(5, 2)

    def test_double_tile_is_rejected(self, session, small_gs_source):
        with pytest.raises(ScheduleError, match="already tiled"):
            session.compile(small_gs_source).lower(
                "cpu", lower_to_scf=True).schedule() \
                .tile(1, 4, 4).tile(1, 2, 2)

    def test_flang_only_admits_only_reorder(self, session, small_gs_source):
        with pytest.raises(ScheduleError,
                           match="only 'reorder' applies"):
            session.compile(small_gs_source).lower("flang-only") \
                   .schedule().tile(4, 4, 4)

    def test_flang_reorder_deeper_than_any_band(self, session):
        # listing1-style 2-D kernel with no time loop: depth-2 bands only.
        source = """
subroutine shallow(a, b)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(in) :: a(n, n)
  real(kind=8), intent(inout) :: b(n, n)
  integer :: i, j
  do j = 2, n - 1
    do i = 2, n - 1
      b(i, j) = 0.25d0 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
  end do
end subroutine shallow
"""
        with pytest.raises(ScheduleError,
                           match="no fir.do_loop band of depth >= 3"):
            session.compile(source).lower("flang-only") \
                   .schedule().reorder(2, 0, 1)

    def test_rejection_does_not_poison_the_cache(self, session,
                                                 small_gs_source):
        program = session.compile(small_gs_source)
        base = program.lower("cpu", lower_to_scf=True)
        with pytest.raises(ScheduleError):
            base.schedule().tile(4, 4)
        # The failed derivation left no artifact behind; the good chain
        # still derives and runs.
        good = base.schedule().tile(1, 4, 4)
        assert good.compiled.artifact is not base.artifact


# ---------------------------------------------------------------------------
# Box execution: schedule.tile through the runtime
# ---------------------------------------------------------------------------


class TestTiledExecution:
    def _run(self, compiled, n=10):
        work = gauss_seidel.initial_condition(n)
        interp = compiled.vectorize().run("gauss_seidel", work)
        return work, interp.stats

    def test_tiled_nest_counts_boxes_and_matches_untiled(
            self, session, small_gs_source):
        program = session.compile(small_gs_source)
        base = program.lower("cpu", lower_to_scf=True)
        tiled = base.schedule().tile(1, 4, 4).compiled

        expected, base_stats = self._run(base)
        actual, tiled_stats = self._run(tiled)
        assert base_stats["schedule_tiles"] == 0
        # 8x8x8 interior, tiles (1,4,4) -> 8*2*2 boxes per sweep, 2 sweeps.
        assert tiled_stats["schedule_tiles"] == 64
        assert actual.tobytes() == expected.tobytes()

    def test_stencil_level_tile_counts_apply_boxes(self, session,
                                                   small_gs_source):
        program = session.compile(small_gs_source)
        base = program.lower("cpu")
        tiled = base.schedule().tile(4, 4, 4).compiled

        expected, _ = self._run(base)
        actual, stats = self._run(tiled)
        assert stats["schedule_tiles"] > 0
        assert actual.tobytes() == expected.tobytes()

    def test_threaded_boxes_stay_bitwise(self, session):
        source = gauss_seidel.generate_source(16, niters=2)
        program = session.compile(source)
        base = program.lower("cpu", lower_to_scf=True)
        tiled = base.schedule().tile(4, 4, 4).compiled

        expected = gauss_seidel.initial_condition(16)
        base.vectorize().run("gauss_seidel", expected)
        actual = gauss_seidel.initial_condition(16)
        interp = tiled.vectorize(threads=4).run("gauss_seidel", actual)
        assert interp.stats["schedule_tiles"] > 0
        assert actual.tobytes() == expected.tobytes()

    def test_degenerate_tile_equals_whole_domain(self, session,
                                                 small_gs_source):
        # Tile sizes >= the extent: a single whole-domain box short-circuits
        # to the untiled path (nothing counted), still bitwise.
        program = session.compile(small_gs_source)
        base = program.lower("cpu", lower_to_scf=True)
        tiled = base.schedule().tile(64, 64, 64).compiled
        expected, _ = self._run(base)
        actual, stats = self._run(tiled)
        assert stats["schedule_tiles"] == 0
        assert actual.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Schedule fuzz farm smoke
# ---------------------------------------------------------------------------


class TestScheduleFuzzSmoke:
    def test_small_run_is_clean(self):
        report = Farm(ScheduleRunner(), count=4).run()
        assert report.ok
        assert report.cases == 4
        assert report.chains_run > 0
        assert "0 divergences" in summary_line(report)

    def test_time_budget_reports_skipped_seeds(self):
        report = Farm(ScheduleRunner(), count=5, time_budget=0.0).run()
        assert report.budget_exhausted
        assert report.seeds_skipped == 5

    def test_chains_are_deterministic_per_seed(self):
        first = ScheduleRunner()
        second = ScheduleRunner()
        spec = generate_spec(0, DEFAULT_CONFIG)
        assert first.run_case(spec).chains == second.run_case(spec).chains

    def test_matrix_adds_flang_config_for_comparable_specs(self):
        for seed in range(20):
            spec = generate_spec(seed, DEFAULT_CONFIG)
            labels = [c.label for c in default_schedule_matrix(spec)]
            assert labels[:3] == ["cpu-stencil", "cpu-scf", "openmp-scf"]
            if spec.flang_comparable and spec.rank >= 2:
                assert labels[-1] == "flang-reorder"

    def test_cli_exit_contract(self):
        from repro.fuzz.__main__ import run
        assert run(["--schedules", "--seeds", "2", "--quiet"]) == 0
