"""Tests for the backend registry and the fluent Program/Session layer.

Covers the ISSUE 3 acceptance surface: backend registration round-trips,
unknown-backend error messages, per-backend option schemas rejecting
mismatched options, artifact-cache hit/miss counters, ``run_batch``
determinism and all five targets through the fluent API.
"""

import os
import threading
import time
import traceback

import numpy as np
import pytest

import repro
from repro.api import session as session_module
from repro.api import (
    Backend,
    BackendRegistry,
    CpuOptions,
    DmpOptions,
    GpuOptions,
    OpenMPOptions,
    OptionError,
    Session,
    UnknownBackendError,
    registry,
)
from repro.api.backends import CpuBackend
from repro.apps import gauss_seidel, pw_advection
from repro.runtime import Interpreter, InterpreterError, MPIError
from repro.serve import ArtifactStore, CompileService


@pytest.fixture
def session():
    return Session()


# ---------------------------------------------------------------------------
# Backend registry
# ---------------------------------------------------------------------------


class TestBackendRegistry:
    def test_default_backends_registered(self):
        assert registry.names() == ("cpu", "dmp", "flang-only", "gpu", "openmp")

    def test_registration_round_trip(self):
        class NullBackend(Backend):
            name = "null"
            uses_stencil_flow = False

        fresh = BackendRegistry()
        backend = fresh.register(NullBackend())
        assert fresh.get("null") is backend
        assert "null" in fresh and len(fresh) == 1
        assert list(fresh) == [backend]

    def test_duplicate_registration_rejected_unless_replace(self):
        class NullBackend(Backend):
            name = "null"
            uses_stencil_flow = False

        fresh = BackendRegistry()
        first = fresh.register(NullBackend())
        with pytest.raises(ValueError, match="already registered"):
            fresh.register(NullBackend())
        second = fresh.register(NullBackend(), replace=True)
        assert fresh.get("null") is second is not first

    def test_unknown_backend_error_lists_valid_names(self):
        with pytest.raises(UnknownBackendError) as exc:
            registry.get("tpu")
        message = str(exc.value)
        assert "'tpu'" in message
        for name in ("cpu", "dmp", "flang-only", "gpu", "openmp"):
            assert name in message

    def test_custom_backend_compiles_through_session(self):
        """A registered backend is immediately usable by a session."""

        class RecordingCpuBackend(Backend):
            name = "recording-cpu"
            options_cls = CpuOptions
            lowered = 0

            def transform(self, artifact, options):
                type(self).lowered += 1

        fresh = BackendRegistry()
        fresh.register(RecordingCpuBackend())
        sess = Session(registry=fresh)
        compiled = sess.compile(gauss_seidel.generate_source(8, 1)).lower(
            "recording-cpu")
        assert RecordingCpuBackend.lowered == 1
        assert compiled.discovered_stencils == {"gauss_seidel": 1}


# ---------------------------------------------------------------------------
# Option schemas: mismatched / invalid options are rejected per backend
# ---------------------------------------------------------------------------


class TestOptionSchemas:
    def test_cpu_backend_rejects_dmp_grid(self, session, small_gs_source):
        with pytest.raises(OptionError, match="backend 'cpu'.*'grid'"):
            session.compile(small_gs_source).lower("cpu", grid=(4, 4))

    def test_openmp_backend_rejects_gpu_tiles(self, session, small_gs_source):
        with pytest.raises(OptionError, match="backend 'openmp'.*'tile_sizes'"):
            session.compile(small_gs_source).lower("openmp", tile_sizes=(8, 8))

    #: owner backend -> a valid value of each option only it defines; no
    #: backend owns the deleted OpenMP schedule clause or GPU tile sizes.
    OWN_OPTIONS = {
        None: {"schedule": "dynamic", "chunk_size": 4,
               "tile_sizes": (32, 32, 1)},
        "gpu": {"data_strategy": "host_register"},
        "dmp": {"grid": (2, 1)},
    }

    @pytest.mark.parametrize("backend", ["flang-only", "cpu", "openmp", "gpu",
                                         "dmp"])
    @pytest.mark.parametrize("owner,option,value", [
        (owner, option, value) for owner, own in OWN_OPTIONS.items()
        for option, value in own.items()])
    def test_a_backend_option_is_refused_by_every_other_backend(
            self, session, small_gs_source, owner, option, value, backend):
        """The owner sets the option on its compiled handle; every other
        backend names itself and the option in an OptionError, before any
        lowering."""
        program = session.compile(small_gs_source)
        if backend == owner:
            compiled = program.lower(backend, **{option: value})
            assert getattr(compiled.options, option) == value
            return
        with pytest.raises(OptionError,
                           match=f"backend '{backend}'.*'{option}'"):
            program.lower(backend, **{option: value})
        assert session.cache_stats["artifacts"] == 0

    def test_error_lists_valid_option_names(self, session, small_gs_source):
        with pytest.raises(OptionError, match="valid options: .*lower_to_scf"):
            session.compile(small_gs_source).lower("cpu", bogus=1)

    @pytest.mark.parametrize("backend,option,value", [
        ("openmp", "schedule", "dynamic"),
        ("openmp", "chunk_size", 4),
        ("openmp", "grid", (2, 2)),
        ("gpu", "tile_sizes", (32, 32, 1)),
    ])
    def test_with_options_refuses_an_option_the_backend_lacks(
            self, session, small_gs_source, backend, option, value):
        """A derived handle validates its changes as ``lower`` does: an
        OptionError naming the option and the backend, never a TypeError from
        the options dataclass."""
        handle = session.compile(small_gs_source).lower(backend,
                                                        lower_to_scf=True)
        with pytest.raises(OptionError,
                           match=f"backend '{backend}'.*'{option}'.*valid options"):
            handle.with_options(**{option: value})
        assert handle.with_options(threads=2).options.threads == 2

    def test_unknown_gpu_data_strategy_rejected(self):
        with pytest.raises(OptionError, match="data_strategy"):
            GpuOptions(data_strategy="unified")

    @pytest.mark.parametrize("kwargs", [
        {"threads": 0},
        {"execution_mode": "warp-speed"},
    ])
    def test_invalid_openmp_options_rejected(self, kwargs):
        with pytest.raises(OptionError):
            OpenMPOptions(**kwargs)

    def test_invalid_grid_rejected(self):
        with pytest.raises(OptionError, match="grid"):
            DmpOptions(grid=(0, 2))

    def test_a_boolean_grid_extent_is_not_one_rank(self):
        with pytest.raises(OptionError, match="^grid must be a sequence of integers"):
            DmpOptions(grid=(True, 2))

    def test_options_normalise_sequences_for_hashing(self):
        assert DmpOptions(grid=[2, 2]).grid == (2, 2)
        assert hash(DmpOptions(grid=[2, 2])) == hash(DmpOptions(grid=(2, 2)))

    def test_mismatch_rejected_even_with_options_object(self, session,
                                                        small_gs_source):
        """Overrides are checked against the schema in both make_options
        branches — an options object must not bypass the named error."""
        with pytest.raises(OptionError, match="backend 'cpu'.*'grid'"):
            session.lower(small_gs_source, "cpu", CpuOptions(), grid=(4, 4))


# ---------------------------------------------------------------------------
# Session: artifact cache + batch execution
# ---------------------------------------------------------------------------


class TestSessionCache:
    def test_hit_and_miss_counters(self, session, small_gs_source):
        program = session.compile(small_gs_source)
        first = program.lower("cpu")
        assert session.cache_stats == {
            "hits": 0, "misses": 1, "coalesced": 0, "artifacts": 1}
        second = program.lower("cpu")
        assert session.cache_stats == {
            "hits": 1, "misses": 1, "coalesced": 0, "artifacts": 1}
        assert second.artifact is first.artifact

    def test_a_program_lowers_under_its_source_key(self, session,
                                                   small_gs_source):
        program = session.compile(small_gs_source)
        first = session.lower(program, "cpu")
        assert first.source == small_gs_source
        second = session.lower(small_gs_source, "cpu")
        assert session.cache_stats == {
            "hits": 1, "misses": 1, "coalesced": 0, "artifacts": 1}
        assert second.artifact is first.artifact

    def test_different_backend_or_options_miss(self, session, small_gs_source):
        program = session.compile(small_gs_source)
        program.lower("cpu")
        program.lower("openmp")                      # different backend
        program.lower("cpu", fuse_stencils=False)    # different compile option
        stats = session.cache_stats
        assert stats["misses"] == 3 and stats["hits"] == 0

    def test_runtime_derivations_share_the_artifact(self, session,
                                                    small_gs_source):
        """execution_mode/threads are runtime policy: deriving them must be a
        cache hit, not a recompile."""
        compiled = session.compile(small_gs_source).lower("cpu")
        derived = compiled.vectorize(threads=2)
        assert derived.options.execution_mode == "vectorize"
        assert derived.options.threads == 2
        assert derived.artifact is compiled.artifact
        assert session.cache_stats["hits"] == 1
        assert compiled.options.execution_mode == "interpret"  # immutable

    def test_cached_metadata_immune_to_caller_mutation(self, session,
                                                       small_gs_source):
        """Handle properties hand out copies: mutating them must not corrupt
        the session-cached artifact other handles share."""
        first = session.compile(small_gs_source).lower("cpu")
        first.extracted_functions.clear()
        first.discovered_stencils.clear()
        second = session.compile(small_gs_source).lower("cpu")
        assert second.artifact is first.artifact      # still a cache hit
        assert second.extracted_functions
        assert second.discovered_stencils == {"gauss_seidel": 1}

    def test_clear_cache_resets(self, session, small_gs_source):
        session.compile(small_gs_source).lower("cpu")
        session.clear_cache()
        assert session.cache_stats == {
            "hits": 0, "misses": 0, "coalesced": 0, "artifacts": 0}

    def test_default_session_behind_repro_compile(self, small_gs_source):
        program = repro.compile(small_gs_source)
        assert program.session is repro.default_session()

    def test_harness_shows_measured_cache_hits(self):
        """Repeated harness compiles of the same (source, backend, options)
        hit the shared session cache (acceptance criterion)."""
        from repro.harness import gpu_data_ablation, harness_session

        before = harness_session().cache_stats
        gpu_data_ablation(n=9, niters=2)
        mid = harness_session().cache_stats
        assert mid["misses"] >= before["misses"] + 2   # two strategies compiled
        gpu_data_ablation(n=9, niters=2)
        after = harness_session().cache_stats
        assert after["hits"] >= mid["hits"] + 2        # both were cache hits
        assert after["misses"] == mid["misses"]


class GatedBackend(CpuBackend):
    """A cpu backend, never registered, whose lowers wait for the test to
    open its gate, and raise when ``fail`` is set."""

    name = "gated-cpu"

    def __init__(self, fail=False):
        self.fail = fail
        self.gate = threading.Event()
        self.lowers = 0

    def lower(self, source, options=None, **overrides):
        self.gate.wait()
        self.lowers += 1
        if self.fail:
            raise ValueError("synthetic backend failure")
        return super().lower(source, options, **overrides)


class TestConcurrentFirstLowers:
    """A key is lowered once, however many threads ask for it first: the
    first caller owns the lower, the others wait and share its outcome."""

    THREADS = 8

    def lower_together(self, session, backend, source):
        """Lower ``source`` on THREADS threads; a shut gate opens once every
        thread but the owner waits.  Returns each thread's handle or
        exception."""
        outcomes = [None] * self.THREADS

        def lower(index):
            try:
                outcomes[index] = session.lower(source, backend)
            except ValueError as exc:
                outcomes[index] = exc

        threads = [threading.Thread(target=lower, args=(i,), daemon=True)
                   for i in range(self.THREADS)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5.0
        try:
            while (not backend.gate.is_set()
                   and session.cache_stats.get("coalesced", 0) < self.THREADS - 1
                   and time.monotonic() < deadline):
                time.sleep(0.005)
        finally:
            backend.gate.set()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        return outcomes

    def test_one_lower_and_one_artifact(self, small_gs_source):
        session, backend = Session(), GatedBackend()
        handles = self.lower_together(session, backend, small_gs_source)
        assert backend.lowers == 1
        stats = session.cache_stats
        assert (stats["misses"], stats["coalesced"]) == (1, self.THREADS - 1)
        assert len({id(handle.artifact) for handle in handles}) == 1

    def test_one_failure_is_shared_as_one_exception_object(
            self, monkeypatch, small_gs_source):
        monkeypatch.setattr(session_module, "COMPILE_RETRIES", 0)
        session, backend = Session(), GatedBackend(fail=True)
        errors = self.lower_together(session, backend, small_gs_source)
        assert backend.lowers == 1
        assert all(isinstance(error, ValueError) for error in errors)
        assert len({id(error) for error in errors}) == 1
        # Every raise, the owner's and each waiter's, starts from the
        # compile's traceback, which ends in the backend.
        assert traceback.extract_tb(errors[0].__traceback__)[-1].name == "lower"

    def test_a_warm_store_is_read_once(self, tmp_path, small_gs_source):
        backend = GatedBackend()
        backend.gate.set()
        Session(store=ArtifactStore(tmp_path)).lower(small_gs_source, backend)
        backend.lowers = 0
        session = Session(store=ArtifactStore(tmp_path))
        handles = self.lower_together(session, backend, small_gs_source)
        stats = session.cache_stats
        assert (stats["disk_hits"], stats["misses"], backend.lowers) == (1, 0, 0)
        assert stats["hits"] + stats["coalesced"] == self.THREADS - 1
        assert len({id(handle.artifact) for handle in handles}) == 1


class TestRunBatch:
    def test_batch_matches_sequential_bitwise(self, session):
        n, iters, count = 10, 2, 6
        source = gauss_seidel.generate_source(n, niters=iters)
        compiled = session.compile(source).lower("cpu",
                                                 execution_mode="vectorize")
        batch_args = [(gauss_seidel.initial_condition(n, seed=i),)
                      for i in range(count)]
        sequential = [gauss_seidel.initial_condition(n, seed=i)
                      for i in range(count)]

        compiled.run_batch("gauss_seidel", batch_args, workers=4)
        for work in sequential:
            compiled.run("gauss_seidel", work)
        for i, work in enumerate(sequential):
            assert np.array_equal(batch_args[i][0], work), f"arg set {i}"

    def test_results_in_input_order(self, session):
        n = 8
        source = gauss_seidel.generate_source(n, niters=1)
        compiled = session.compile(source).lower("cpu")
        arg_sets = [(gauss_seidel.initial_condition(n, seed=i),)
                    for i in range(5)]
        results = compiled.run_batch("gauss_seidel", arg_sets, workers=3)
        assert len(results) == 5      # one (empty) return list per arg set

    @pytest.mark.parametrize("workers", [True, 2.5, "2", 0])
    def test_a_worker_count_that_is_not_a_positive_int_is_refused(
            self, session, workers):
        """``True`` is not one worker: the rule ``threads`` follows."""
        compiled = session.compile(gauss_seidel.generate_source(6)).lower("cpu")
        batch = [(gauss_seidel.initial_condition(6),)]
        with pytest.raises(OptionError, match="^workers must be an integer"):
            compiled.run_batch("gauss_seidel", batch, workers=workers)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_default_workers_follow_the_cpus_the_process_may_use(
            self, session, monkeypatch, cpus):
        """Read at every call from the affinity mask, which a pinned process
        narrows below ``os.cpu_count()``: on one CPU the batch runs in order
        on the calling thread, on three it runs on pool threads."""
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        ran_on = set()
        call = Interpreter.call

        def recording_call(interp, *args):
            ran_on.add(threading.current_thread())
            return call(interp, *args)

        monkeypatch.setattr(Interpreter, "call", recording_call)
        n = 8
        compiled = session.compile(
            gauss_seidel.generate_source(n, niters=1)).lower("cpu")
        batch = [(gauss_seidel.initial_condition(n, seed=i),) for i in range(4)]
        compiled.run_batch("gauss_seidel", batch)
        on_caller = ran_on == {threading.current_thread()}
        assert on_caller == (cpus == 1), ran_on
        for i, (work,) in enumerate(batch):
            want = gauss_seidel.reference_jacobi(
                gauss_seidel.initial_condition(n, seed=i), 1)
            assert work.tobytes() == want.tobytes(), f"arg set {i}"

    def test_empty_batch(self, session, small_gs_source):
        compiled = session.compile(small_gs_source).lower("cpu")
        assert compiled.run_batch("gauss_seidel", []) == []

    def test_no_deadlock_when_workers_equal_interpreter_threads(self, session):
        """Batch dispatch must not share a pool with the interpreters' tiled
        executors: workers == threads used to deadlock on the count-keyed
        process-wide pool."""
        n = 12
        source = gauss_seidel.generate_source(n, niters=1)
        compiled = session.compile(source).lower(
            "openmp", lower_to_scf=True).vectorize(threads=2)
        batch = [(gauss_seidel.initial_condition(n, seed=i),)
                 for i in range(4)]
        results = compiled.run_batch("gauss_seidel", batch, workers=2)
        assert len(results) == 4

    @pytest.mark.parametrize("entry", ["gauss_seidel", "no_such_entry"])
    def test_no_batch_thread_outlives_the_call(self, session, entry):
        """Returned or raised, no item still writes the caller's arrays."""
        n = 8
        compiled = session.compile(
            gauss_seidel.generate_source(n, niters=1)).lower("cpu")
        batch = [(gauss_seidel.initial_condition(n, seed=i),) for i in range(4)]
        if entry == "gauss_seidel":
            assert len(compiled.run_batch(entry, batch, workers=2)) == 4
        else:
            with pytest.raises(InterpreterError, match=entry):
                compiled.run_batch(entry, batch, workers=2)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-batch")]


# ---------------------------------------------------------------------------
# Typed errors at the public calls
# ---------------------------------------------------------------------------


class TestTypedErrors:
    """A bad value at a public call is the typed error its neighbours raise,
    naming the argument — never a raw AttributeError or TypeError from deep
    inside, and never silently accepted."""

    N = 8

    @pytest.fixture(scope="class")
    def env(self):
        session = Session()
        n = self.N
        source = gauss_seidel.generate_source(n, niters=1)
        service = CompileService(Session(), workers=1)
        yield {
            "session": session,
            "source": source,
            "service": service,
            "cpu": session.compile(source).lower("cpu"),
            "plan": session.compile(
                gauss_seidel.generate_source_shaped((n // 2 + 2, n + 2, n + 2))
            ).lower("dmp", grid=(2, 1)).distribute(
                source_builder=gauss_seidel.generate_source_shaped),
            "field": gauss_seidel.initial_condition(n, seed=0),
        }
        service.close()

    @pytest.mark.parametrize("call, error, argument", [
        (lambda env: repro.compile(123).lower("cpu"), OptionError, "source"),
        (lambda env: env["service"].compile(None), OptionError, "source"),
        (lambda env: env["plan"].run(env["field"], iterations="2"),
         MPIError, "iterations"),
        (lambda env: env["plan"].run(env["field"], iterations=True),
         MPIError, "iterations"),
        (lambda env: env["cpu"].with_options(threads="2"), OptionError,
         "threads"),
        (lambda env: env["cpu"].vectorize(threads=True), OptionError,
         "threads"),
        (lambda env: env["cpu"].with_threads(True), OptionError, "threads"),
        (lambda env: env["session"].compile(env["source"]).lower(
            "openmp", threads=True), OptionError, "threads"),
        (lambda env: env["session"].compile(env["source"]).lower(
            "dmp", grid="2x2"), OptionError, "grid"),
        (lambda env: env["cpu"].run_batch(
            "gauss_seidel", [(env["field"].copy(order="F"),)], workers=0),
         OptionError, "workers"),
    ], ids=["compile-int-source", "service-none-source", "iterations-str",
            "iterations-bool", "with-options-threads-str",
            "vectorize-threads-bool", "with-threads-bool",
            "lower-threads-bool", "dmp-grid-str",
            "run-batch-zero-workers"])
    def test_bad_value_raises_the_typed_error_naming_it(self, env, call,
                                                        error, argument):
        with pytest.raises(error, match=argument):
            call(env)

    def test_unknown_run_keyword_is_refused_by_name(self, env):
        """``run()`` forwards its keywords to ``interpreter()``: a misspelt
        one is an OptionError naming it and listing those accepted, raised
        before the entry runs."""
        field = env["field"].copy(order="F")
        with pytest.raises(OptionError,
                           match=r"'thread'; accepted: gpu, comm, rank, "
                                 r"decomposition$"):
            env["cpu"].run("gauss_seidel", field, thread=2)
        with pytest.raises(OptionError,
                           match=r"'threads'; .* derive it with "
                                 r"with_options\(\.\.\.\)$"):
            env["cpu"].run("gauss_seidel", field, threads=2)
        assert field.tobytes() == env["field"].tobytes()


# ---------------------------------------------------------------------------
# Fluent Program layer: all five targets
# ---------------------------------------------------------------------------


class TestFluentPrograms:
    @pytest.mark.parametrize("backend,kwargs", [
        ("cpu", {}),
        ("cpu", {"lower_to_scf": True}),
        ("openmp", {"lower_to_scf": True}),
        ("gpu", {}),
        ("gpu", {"data_strategy": "host_register"}),
    ])
    def test_stencil_backends_match_jacobi(self, session, backend, kwargs):
        n, iters = 10, 2
        program = session.compile(gauss_seidel.generate_source(n, iters))
        work = gauss_seidel.initial_condition(n)
        expected = gauss_seidel.reference_jacobi(work, iters)
        program.lower(backend, **kwargs).run("gauss_seidel", work)
        assert np.allclose(work, expected)

    def test_flang_only_backend_matches_gauss_seidel(self, session):
        n, iters = 8, 2
        program = session.compile(gauss_seidel.generate_source(n, iters))
        work = gauss_seidel.initial_condition(n)
        expected = gauss_seidel.reference_gauss_seidel(work, iters)
        program.lower("flang-only").run("gauss_seidel", work)
        assert np.allclose(work, expected)

    def test_dmp_backend_through_measured_driver(self):
        """The dmp target compiles and runs through the new API end to end
        (the harness's measured Figure 6 driver is on it)."""
        from repro.harness import measured_distributed_scaling

        result = measured_distributed_scaling(rank_grids=[(2, 2)], n=12,
                                              niters=1, repeats=1)
        [(_, _, _, _, _, error)] = result.rows
        assert error < 1e-12
        assert result.notes["ranks=4"]["messages"] > 0

    def test_issue_fluent_chain(self, session):
        """The fluent derivation chain: lower to scf.parallel nests, derive a
        vectorized multi-threaded handle, run."""
        n = 16
        program = session.compile(pw_advection.generate_source(n))
        u, v, w, su, sv, sw = pw_advection.initial_fields(n)
        interp = (program.lower("openmp", lower_to_scf=True)
                         .vectorize(threads=4)
                         .run("pw_advection", u, v, w, su, sv, sw))
        rsu, rsv, rsw = pw_advection.reference(u, v, w)
        assert np.allclose(su, rsu)
        assert np.allclose(sv, rsv)
        assert np.allclose(sw, rsw)
        assert interp.stats["vectorized_sweeps"] >= 1

    def test_retarget_compiles_other_backend(self, session, small_gs_source):
        compiled = session.compile(small_gs_source).lower("cpu")
        gpu = compiled.retarget("gpu", data_strategy="host_register")
        assert gpu.backend_name == "gpu"
        assert gpu.options.data_strategy == "host_register"
        assert session.cache_stats["misses"] == 2

    def test_runtime_options_come_from_the_handle(self, session,
                                                  small_gs_source):
        """``execution_mode`` and ``threads`` are set on the handle only:
        falsy values are refused when derived, never silently defaulted, and
        ``interpreter()`` has no second copy of them."""
        compiled = session.compile(small_gs_source).lower("cpu")
        with pytest.raises(OptionError, match="execution_mode"):
            compiled.with_options(execution_mode="")
        with pytest.raises(OptionError, match="threads"):
            compiled.with_options(threads=0)
        interp = compiled.with_options(
            execution_mode="vectorize", threads=2).interpreter()
        assert (interp.execution_mode, interp.threads) == ("vectorize", 2)
        with pytest.raises(TypeError, match="threads"):
            compiled.interpreter(threads=2)


class TestDmpCacheKeys:
    """The process grid is compile-time identity; rank/pool knobs are not."""

    def test_grid_shapes_are_distinct_cache_keys(self, session, small_gs_source):
        program = session.compile(small_gs_source)
        for grid in ((1, 1), (2, 1), (2, 2)):
            program.lower("dmp", grid=grid)
        stats = session.cache_stats
        assert stats == {"hits": 0, "misses": 3, "coalesced": 0, "artifacts": 3}
        # Re-lowering every grid is a pure cache hit: one compile per grid.
        handles = {grid: session.compile(small_gs_source).lower("dmp", grid=grid)
                   for grid in ((1, 1), (2, 1), (2, 2))}
        stats = session.cache_stats
        assert stats == {"hits": 3, "misses": 3, "coalesced": 0, "artifacts": 3}
        assert handles[(2, 1)].artifact is not handles[(2, 2)].artifact

    def test_grid_in_cache_key_and_list_normalised(self):
        assert ("grid", (2, 2)) in DmpOptions(grid=(2, 2)).cache_key()
        assert DmpOptions(grid=[2, 2]).cache_key() == DmpOptions(grid=(2, 2)).cache_key()

    def test_runtime_knobs_do_not_recompile(self, session):
        """distribute(...), a handle derived with another execution
        mode and thread count, and repeated runs reuse the artifacts compiled
        for the grid — zero new misses."""
        n = 8
        program = session.compile(
            gauss_seidel.generate_source_shaped((n + 2,) * 3)
        )
        compiled = program.lower("dmp", grid=(2, 2), execution_mode="vectorize")
        baseline = session.cache_stats["misses"]  # 1: the base compile

        plan = compiled.distribute(
            source_builder=gauss_seidel.generate_source_shaped
        )
        rng = np.random.default_rng(0)
        # z is not decomposed by a 2-d grid, so a (2n, 2n, n) domain gives
        # every rank the same (n+2)^3 padded box as the base source: the run
        # compiles nothing new beyond cache hits.
        field = np.asfortranarray(rng.random((2 * n, 2 * n, n)))
        plan.run(field, iterations=1)
        after_first = session.cache_stats
        assert after_first["misses"] == baseline

        # Different threads, execution-mode: runtime only.
        compiled.with_options(execution_mode="interpret", threads=1).distribute(
            source_builder=gauss_seidel.generate_source_shaped,
        ).run(field, iterations=1)
        assert session.cache_stats["misses"] == baseline
        assert session.cache_stats["hits"] > after_first["hits"]

    def test_new_grid_is_a_measured_miss_through_distribute(self, session):
        n = 12
        program = session.compile(
            gauss_seidel.generate_source_shaped((n + 2,) * 3)
        )
        rng = np.random.default_rng(1)
        field = np.asfortranarray(rng.random((n, n, n)))
        misses_per_grid = []
        for grid in ((1, 1), (2, 1)):
            program.lower("dmp", grid=grid, execution_mode="vectorize").distribute(
                source_builder=gauss_seidel.generate_source_shaped
            ).run(field)
            misses_per_grid.append(session.cache_stats["misses"])
        # The second grid is a *measured* miss through the distribute path
        # (it cannot be served from the (1, 1) entry).
        assert misses_per_grid[1] > misses_per_grid[0]
        misses_two_grids = misses_per_grid[1]
        # (2, 1) over n=12 needs one extra per-shape artifact (7, 14, 14);
        # a *repeated* run of either grid needs none.
        program.lower("dmp", grid=(2, 1), execution_mode="vectorize").distribute(
            source_builder=gauss_seidel.generate_source_shaped
        ).run(field)
        assert session.cache_stats["misses"] == misses_two_grids


class TestGpuCacheKeys:
    """GPU data strategy and tile sizes are compile-time identity; execution
    mode and threads are runtime-only (mirrors TestDmpCacheKeys)."""

    def test_data_strategy_change_recompiles(self, session, small_gs_source):
        program = session.compile(small_gs_source)
        optimised = program.lower("gpu", data_strategy="optimised")
        host_register = program.lower("gpu", data_strategy="host_register")
        assert session.cache_stats == {
            "hits": 0, "misses": 2, "coalesced": 0, "artifacts": 2}
        assert optimised.artifact is not host_register.artifact
        # Re-lowering either strategy is a pure cache hit.
        again = program.lower("gpu", data_strategy="host_register")
        assert session.cache_stats == {
            "hits": 1, "misses": 2, "coalesced": 0, "artifacts": 2}
        assert again.artifact is host_register.artifact

    def test_runtime_knobs_do_not_recompile(self, session, small_gs_source):
        """execution_mode / threads derive handles from the one compiled
        artifact — measured as cache hits, zero new misses."""
        program = session.compile(small_gs_source)
        base = program.lower("gpu", data_strategy="optimised")
        baseline = session.cache_stats["misses"]  # 1: the base compile
        derived = [
            program.lower("gpu", data_strategy="optimised",
                          execution_mode="vectorize"),
            program.lower("gpu", data_strategy="optimised", threads=2),
            program.lower("gpu", data_strategy="optimised",
                          execution_mode="crosscheck", threads=4),
            base.vectorize(threads=2),
            base.with_options(threads=8),
        ]
        assert session.cache_stats["misses"] == baseline
        assert session.cache_stats["hits"] == len(derived)
        assert all(h.artifact is base.artifact for h in derived)

    def test_runtime_knobs_excluded_from_cache_key_and_validated(self):
        key_fields = {name for name, _ in GpuOptions().cache_key()}
        assert key_fields == {"lower_to_scf", "fuse_stencils", "data_strategy"}
        with pytest.raises(OptionError):
            GpuOptions(threads=0)
        with pytest.raises(OptionError):
            GpuOptions(execution_mode="fast")

    def test_streams_is_an_unknown_option(self, small_gs_source):
        """Launches run synchronously: there is no stream count to set."""
        assert "streams" not in GpuOptions.field_names()
        with pytest.raises(OptionError, match="streams"):
            repro.Session().compile(small_gs_source).lower("gpu", streams=2)
