"""Tests for the user-schedulable kernel layer: ``CompiledProgram.schedule()``.

Five contract areas of ``repro.schedule``:

* **directive grammar** — chains normalize to canonical nested tuples and
  malformed directives are loud ``ScheduleError``s, surfaced as
  ``OptionError`` when they arrive through ``lower(schedule_chain=...)``;
* **derivation & caching** — every loop directive derives a *new* artifact
  through the session cache (the chain is cache-key material), while
  runtime-only knobs (threads, execution mode) share the parent's artifact;
* **oracle-proven equivalence** — multi-transform chains on both paper
  benchmarks verify bitwise against the unscheduled parent on every
  targeted backend, and semantically illegal schedules (a reordered
  loop-carried dependence) are rejected by ``verify()``;
* **backend knobs** — ``omp``/``blocks``/``grid`` set the
  corresponding backend options and refuse the wrong backend;
* **persistence** — scheduled artifacts land in the on-disk store under
  schedule-extended keys and reload bitwise-identical.
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.schedule import (
    Schedule,
    ScheduleError,
    ScheduleVerificationError,
    describe_chain,
    normalize_schedule_chain,
)
from repro.schedule.schedule import synthesize_args
from repro.serve import ArtifactStore


@pytest.fixture
def session():
    return repro.Session()


#: Out-of-place single-sweep PW variant: only the ``su`` component, written
#: from read-only ``u``/``v``/``w``.  Under flang-only this is ONE perfect
#: fir.do_loop band of depth 4 ([it, k, j, i]), so the same depth-4
#: permutation that is illegal on Gauss-Seidel is structurally available
#: here — and legal, because no iteration reads what another wrote.
PW_SU_SOURCE = """
subroutine pw_su(u, v, w, su)
  implicit none
  integer, parameter :: n = 8
  integer, parameter :: niters = 2
  real(kind=8), parameter :: tcx = 0.5d0 / 100.0d0
  real(kind=8), parameter :: tcy = 0.5d0 / 100.0d0
  real(kind=8), parameter :: tcz = 0.5d0 / 100.0d0
  real(kind=8), intent(in) :: u(n, n, n), v(n, n, n), w(n, n, n)
  real(kind=8), intent(inout) :: su(n, n, n)
  integer :: i, j, k, it
  do it = 1, niters
    do k = 2, n - 1
      do j = 2, n - 1
        do i = 2, n - 1
          su(i, j, k) = tcx * (u(i-1, j, k) * (u(i, j, k) + u(i-1, j, k)) &
                             - u(i+1, j, k) * (u(i, j, k) + u(i+1, j, k))) &
                      + tcy * (u(i, j-1, k) * (v(i, j-1, k) + v(i-1, j-1, k)) &
                             - u(i, j+1, k) * (v(i, j, k) + v(i-1, j, k))) &
                      + tcz * (u(i, j, k-1) * (w(i, j, k-1) + w(i-1, j, k-1)) &
                             - u(i, j, k+1) * (w(i, j, k) + w(i-1, j, k)))
        end do
      end do
    end do
  end do
end subroutine pw_su
"""


# ---------------------------------------------------------------------------
# Directive grammar
# ---------------------------------------------------------------------------


class TestDirectiveGrammar:
    def test_chain_normalizes_lists_to_tuples(self):
        chain = normalize_schedule_chain(
            [("tile", [4, 8]), ("reorder", [1, 0]), ("unroll", [0, 2])]
        )
        assert chain == (("tile", (4, 8)), ("reorder", (1, 0)), ("unroll", (0, 2)))

    def test_none_is_the_empty_chain(self):
        assert normalize_schedule_chain(None) == ()

    @pytest.mark.parametrize("chain, message", [
        ([("warp", (2,))], "unknown schedule directive 'warp'"),
        ([()], "empty schedule directive"),
        (["fuse"], "unknown schedule directive 'fuse'"),
        ([("tile", (0, 4))], "tile sizes must be positive"),
        ([("tile", ("a",))], "expected a sequence of integers"),
        ([("reorder", (0, 2))], "must be a permutation"),
        ([("reorder", (1,))], "must be a permutation"),
        ([("unroll", (0, 1))], "unroll factor must be >= 2"),
        ([("unroll", (-1, 2))], "unroll loop index must be >= 0"),
    ])
    def test_malformed_chains_are_loud(self, chain, message):
        with pytest.raises(ScheduleError, match=message):
            normalize_schedule_chain(chain)

    def test_describe_chain_renders_compactly(self):
        chain = normalize_schedule_chain(
            [("tile", (1, 4, 8)), ("reorder", (1, 0)), ("unroll", (0, 2))])
        assert describe_chain(chain) == "tile(1,4,8).reorder(1,0).unroll(0,2)"

    def test_invalid_chain_through_lower_is_an_option_error(
            self, session, small_gs_source):
        with pytest.raises(repro.OptionError,
                           match="invalid schedule_chain"):
            session.compile(small_gs_source).lower(
                "cpu", schedule_chain=[("tile", (0,))])


# ---------------------------------------------------------------------------
# Fluent derivation & session-cache semantics (mirrors TestDmpCacheKeys)
# ---------------------------------------------------------------------------


class TestScheduleCacheKeys:
    def test_each_loop_directive_derives_a_distinct_artifact(
            self, session, small_gs_source):
        base = session.compile(small_gs_source).lower(
            "cpu", lower_to_scf=True)
        tiled = base.schedule().tile(1, 4, 4)
        chained = tiled.reorder(1, 0)
        assert session.cache_stats == {"hits": 0, "misses": 3, "artifacts": 3}
        assert tiled.compiled.artifact is not base.artifact
        assert chained.compiled.artifact is not tiled.compiled.artifact
        assert chained.chain == (("tile", (1, 4, 4)), ("reorder", (1, 0)))

    def test_rederiving_the_same_chain_is_a_cache_hit(
            self, session, small_gs_source):
        program = session.compile(small_gs_source)
        a = program.lower("cpu", lower_to_scf=True).schedule().tile(1, 4, 4)
        b = program.lower("cpu", lower_to_scf=True).schedule().tile(1, 4, 4)
        assert b.compiled.artifact is a.compiled.artifact
        assert session.cache_stats["hits"] >= 2  # re-lower + re-derive

    def test_runtime_knobs_share_the_scheduled_artifact(
            self, session, small_gs_source):
        tiled = session.compile(small_gs_source).lower(
            "openmp", lower_to_scf=True).schedule().tile(1, 4, 4)
        threaded = tiled.compiled.with_options(threads=4)
        assert threaded.artifact is tiled.compiled.artifact
        assert session.cache_stats["artifacts"] == 2  # base + tiled only

    def test_chain_is_cache_key_material(self, session, small_gs_source):
        tiled = session.compile(small_gs_source).lower(
            "cpu", lower_to_scf=True,
            schedule_chain=(("tile", (1, 4, 4)),))
        key = tiled.options.cache_key()
        assert ("schedule_chain", (("tile", (1, 4, 4)),)) in key
        # threads is runtime-only: absent from the compile-time key.
        assert not any(field == "threads" for field, _ in key)

    def test_lists_normalize_to_one_cache_entry(self, session,
                                                small_gs_source):
        program = session.compile(small_gs_source)
        a = program.lower("cpu", schedule_chain=[["tile", [4, 4, 4]]])
        b = program.lower("cpu", schedule_chain=(("tile", (4, 4, 4)),))
        assert b.artifact is a.artifact


# ---------------------------------------------------------------------------
# Oracle-proven equivalence (the acceptance chains)
# ---------------------------------------------------------------------------


class TestVerifiedChains:
    """A >=3-transform chain must verify bitwise on both paper benchmarks,
    on every backend the loop directives target."""

    @pytest.mark.parametrize("backend, options", [
        ("cpu", {"lower_to_scf": True}),
        ("openmp", {"lower_to_scf": True, "threads": 2}),
    ])
    def test_three_transform_chain_on_gauss_seidel(
            self, session, small_gs_source, backend, options):
        schedule = (session.compile(small_gs_source)
                    .lower(backend, **options)
                    .schedule().tile(1, 4, 8).reorder(1, 0).unroll(1, 2)
                    .verify())
        assert len(schedule.chain) == 3

    @pytest.mark.parametrize("backend, options", [
        ("cpu", {"lower_to_scf": True}),
        ("openmp", {"lower_to_scf": True, "threads": 2}),
    ])
    def test_four_transform_chain_on_pw_advection(
            self, session, small_pw_source, backend, options):
        schedule = (session.compile(small_pw_source)
                    .lower(backend, **options)
                    .schedule().tile(2, 4, 4).reorder(1, 0)
                    .unroll(0, 2).unroll(1, 2)
                    .verify())
        assert len(schedule.chain) == 4

    def test_verified_schedule_runs_bitwise_equal_to_parent(
            self, session, small_gs_source):
        n = 10
        base = session.compile(small_gs_source).lower(
            "cpu", lower_to_scf=True)
        schedule = base.schedule().tile(1, 4, 4).reorder(1, 0).verify()
        expected = gauss_seidel.initial_condition(n)
        actual = gauss_seidel.initial_condition(n)
        base.run("gauss_seidel", expected)
        schedule.run("gauss_seidel", actual)
        assert actual.tobytes() == expected.tobytes()

    def test_stencil_level_tile_verifies_without_scf(self, session,
                                                     small_pw_source):
        (session.compile(small_pw_source)
         .lower("cpu")
         .schedule().tile(4, 4, 4)
         .verify())

    def test_empty_chain_verify_is_a_no_op(self, session, small_gs_source):
        schedule = session.compile(small_gs_source).lower("cpu").schedule()
        assert schedule.verify() is schedule

    def test_verify_returns_self_for_chaining(self, session,
                                              small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("cpu", lower_to_scf=True)
                    .schedule().tile(1, 4, 4))
        assert schedule.verify() is schedule


class TestFlangLegalityMatrix:
    """flang-only reorders whole fir.do_loop bands — including the time
    loop.  Spatial interchange of the Gauss-Seidel sweep is legal (any
    lexicographic order is a linear extension of the dependence DAG: the
    minus-direction neighbours are always updated first), but rotating the
    *time* loop into the spatial nest replays sweeps in a different
    interleaving and must be caught by verify()."""

    def test_gs_time_loop_rotation_is_rejected(self, session,
                                               small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("flang-only")
                    .schedule().reorder(1, 2, 3, 0))
        with pytest.raises(ScheduleVerificationError,
                           match=r"reorder\(1,2,3,0\) changes 'gauss_seidel'"):
            schedule.verify()

    def test_same_chain_passes_on_out_of_place_sweep(self, session):
        # The identical depth-4 permutation on the single-sweep PW variant:
        # out-of-place, so every loop order computes the same values.
        (session.compile(PW_SU_SOURCE)
         .lower("flang-only")
         .schedule().reorder(1, 2, 3, 0)
         .verify())

    def test_gs_spatial_interchange_is_legal(self, session, small_gs_source):
        (session.compile(small_gs_source)
         .lower("flang-only")
         .schedule().reorder(2, 1, 0)
         .verify())

    def test_pw_sibling_sweeps_each_reorder(self, session, small_pw_source):
        (session.compile(small_pw_source)
         .lower("flang-only")
         .schedule().reorder(2, 1, 0)
         .verify())

    def test_illegal_schedule_error_names_the_chain(self, session,
                                                    small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("flang-only")
                    .schedule().reorder(1, 2, 3, 0))
        with pytest.raises(ScheduleVerificationError) as excinfo:
            schedule.verify()
        message = str(excinfo.value)
        assert "arg0" in message and "illegal" in message


# ---------------------------------------------------------------------------
# verify() plumbing: entry resolution and argument synthesis
# ---------------------------------------------------------------------------


class TestVerifyPlumbing:
    def test_entry_inferred_when_unambiguous(self, session, small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("cpu", lower_to_scf=True)
                    .schedule().tile(1, 4, 4))
        schedule.verify()  # no entry= needed: one subroutine

    def test_ambiguous_entry_requires_explicit_name(self, session,
                                                    small_gs_source,
                                                    small_pw_source):
        program = session.compile(small_gs_source + small_pw_source)
        schedule = program.lower("cpu", lower_to_scf=True) \
                          .schedule().tile(1, 4, 4)
        with pytest.raises(ScheduleError, match="cannot infer the entry"):
            schedule.verify()
        schedule.verify(entry="gauss_seidel")

    def test_unknown_entry_is_loud(self, session, small_gs_source):
        schedule = session.compile(small_gs_source).lower("cpu").schedule()
        with pytest.raises(ScheduleError, match="no function 'nope'"):
            schedule.verify(entry="nope")

    def test_synthesized_args_are_deterministic(self, session,
                                                small_gs_source):
        compiled = session.compile(small_gs_source).lower("cpu")
        func_op = compiled.artifact.fir_module.get_symbol("gauss_seidel")
        first = synthesize_args(func_op)
        second = synthesize_args(func_op)
        assert len(first) == 1 and first[0].shape == (10, 10, 10)
        assert first[0].flags.f_contiguous
        assert first[0].tobytes() == second[0].tobytes()

    def test_caller_args_are_not_mutated(self, session, small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("cpu", lower_to_scf=True)
                    .schedule().tile(1, 4, 4))
        work = gauss_seidel.initial_condition(10)
        snapshot = work.tobytes()
        schedule.verify(args=[work])
        assert work.tobytes() == snapshot


# ---------------------------------------------------------------------------
# Backend knobs
# ---------------------------------------------------------------------------


class TestBackendKnobs:
    def test_omp_sets_the_worksharing_clause(self, session, small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("openmp")
                    .schedule().omp(schedule="dynamic", chunk=4))
        assert schedule.compiled.options.schedule == "dynamic"
        assert schedule.compiled.options.chunk_size == 4

    def test_blocks_sets_gpu_tile_sizes(self, session, small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("gpu")
                    .schedule().blocks(4, 4, 4))
        assert schedule.compiled.options.tile_sizes == (4, 4, 4)
        # Tile sizes are the gpu's only knob: launches run synchronously,
        # so there is no stream count to schedule.
        assert not hasattr(schedule, "streams")

    def test_grid_sets_the_process_grid(self, session, small_gs_source):
        schedule = (session.compile(small_gs_source)
                    .lower("dmp")
                    .schedule().grid(2, 1))
        assert schedule.compiled.options.grid == (2, 1)

    @pytest.mark.parametrize("knob, call", [
        ("omp", lambda s: s.omp(schedule="static")),
        ("blocks", lambda s: s.blocks(4, 4, 4)),
        ("grid", lambda s: s.grid(2, 1)),
    ])
    def test_knobs_refuse_the_wrong_backend(self, session, small_gs_source,
                                            knob, call):
        schedule = session.compile(small_gs_source).lower("cpu").schedule()
        with pytest.raises(ScheduleError, match=knob):
            call(schedule)

    def test_gpu_loop_directives_point_at_the_knob(self, session,
                                                   small_gs_source):
        with pytest.raises(ScheduleError, match="Schedule.blocks"):
            session.compile(small_gs_source).lower("gpu").schedule() \
                   .tile(4, 4, 4)

    def test_dmp_loop_directives_point_at_the_knob(self, session,
                                                   small_gs_source):
        with pytest.raises(ScheduleError, match="Schedule.grid"):
            session.compile(small_gs_source).lower("dmp").schedule() \
                   .reorder(1, 0)

    def test_dmp_verify_is_refused(self, session, small_gs_source):
        schedule = session.compile(small_gs_source).lower("dmp").schedule()
        with pytest.raises(ScheduleError, match="distributed plan"):
            schedule.verify()


# ---------------------------------------------------------------------------
# Persistence: schedule-extended store keys
# ---------------------------------------------------------------------------


class TestScheduledArtifactPersistence:
    def test_scheduled_and_unscheduled_keys_are_distinct(self, tmp_path,
                                                         small_gs_source):
        store = ArtifactStore(tmp_path)
        session = repro.Session(store=store)
        program = session.compile(small_gs_source)
        program.lower("cpu")
        program.lower("cpu", schedule_chain=(("tile", (4, 4, 4)),))
        assert len(store) == 2

    def test_scheduled_artifact_reloads_bitwise(self, tmp_path,
                                                small_gs_source):
        store = ArtifactStore(tmp_path)
        chain = (("tile", (4, 4, 4)),)
        warm = repro.Session(store=store).compile(small_gs_source).lower(
            "cpu", lower_to_scf=True, schedule_chain=chain)

        cold_store = ArtifactStore(tmp_path)
        cold = repro.Session(store=cold_store).compile(small_gs_source).lower(
            "cpu", lower_to_scf=True, schedule_chain=chain)
        assert cold_store.stats["hits"] == 1  # reloaded, not recompiled

        expected = gauss_seidel.initial_condition(10)
        actual = gauss_seidel.initial_condition(10)
        warm.run("gauss_seidel", expected)
        interp = cold.vectorize().run("gauss_seidel", actual)
        assert actual.tobytes() == expected.tobytes()
        # The tile annotation survived the print->parse round-trip: the
        # reloaded artifact still executes through the box planner.
        assert interp.stats["schedule_tiles"] > 0
