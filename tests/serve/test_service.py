"""CompileService: single-flight, backpressure, timeouts, metrics.

Deterministic concurrency: the tests register gate-controlled backends in a
private registry so a compile can be held in flight for exactly as long as a
test needs, instead of relying on scheduler timing.
"""

import sys
import threading
import time

import pytest

from repro.api import OptionError, Session
from repro.api.backends import (
    BackendRegistry,
    CpuBackend,
    FlangOnlyBackend,
    GpuBackend,
    OpenMPBackend,
)
from repro.apps import gauss_seidel
from repro.harness import service_metrics_table
from repro.serve import (
    ArtifactStore,
    CompileService,
    ServiceRejected,
    ServiceTimeout,
)


class GatedCpuBackend(CpuBackend):
    """A cpu backend whose lowers block until the test opens the gate."""

    name = "gated"

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()
        self.started = threading.Event()
        self.lower_count = 0
        self._count_lock = threading.Lock()

    def lower(self, source, options=None, **overrides):
        self.started.set()
        self.gate.wait()
        with self._count_lock:
            self.lower_count += 1
        return super().lower(source, options, **overrides)


class FailingBackend(CpuBackend):
    """A backend whose every lower raises (for quarantine-sharing tests)."""

    name = "failing"

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()
        self.lower_count = 0
        self._count_lock = threading.Lock()

    def lower(self, source, options=None, **overrides):
        self.gate.wait()
        with self._count_lock:
            self.lower_count += 1
        raise ValueError("synthetic backend failure")


def _make_service(**kwargs):
    reg = BackendRegistry()
    gated = GatedCpuBackend()
    failing = FailingBackend()
    for backend in (gated, failing, CpuBackend(), OpenMPBackend(),
                    GpuBackend(), FlangOnlyBackend()):
        reg.register(backend)
    session = Session(registry=reg)
    service = CompileService(session, **kwargs)
    return service, gated, failing


SOURCE = gauss_seidel.generate_source(6)
OTHER_SOURCE = gauss_seidel.generate_source(6, name="other_kernel")


class TestSingleFlight:
    def test_duplicate_inflight_compiles_coalesce_to_one_lower(self):
        service, gated, _ = _make_service(workers=4, max_queue=32)
        try:
            gated.gate.clear()
            futures = [service.submit_compile(SOURCE, "gated")
                       for _ in range(6)]
            assert gated.started.wait(5.0)
            # Everybody shares the winner's future.
            assert all(f is futures[0] for f in futures)
            assert not futures[0].done()
            gated.gate.set()
            compiled = futures[0].result(5.0)
            assert gated.lower_count == 1
            metrics = service.metrics()
            assert metrics.coalesced == 5
            assert metrics.misses == 1
            assert metrics.submitted_compiles == 6
            # Every caller sees the same cached artifact.
            assert service.compile(SOURCE, "gated").artifact is compiled.artifact
        finally:
            gated.gate.set()
            service.close()

    def test_distinct_keys_do_not_coalesce(self):
        service, gated, _ = _make_service(workers=2)
        try:
            a = service.compile(SOURCE, "gated")
            b = service.compile(OTHER_SOURCE, "gated")
            c = service.compile(SOURCE, "gated", fuse_stencils=False)
            assert gated.lower_count == 3
            assert len({id(h.artifact) for h in (a, b, c)}) == 3
        finally:
            service.close()

    def test_runs_are_never_coalesced_but_their_compile_is(self):
        service, gated, _ = _make_service(workers=4)
        try:
            fields = [gauss_seidel.initial_condition(6) for _ in range(6)]
            futures = [
                service.submit_run(SOURCE, "gauss_seidel", [field],
                                   backend="gated")
                for field in fields
            ]
            interps = [f.result(10.0) for f in futures]
            assert gated.lower_count == 1
            assert len({id(i) for i in interps}) == 6  # one execution each
            metrics = service.metrics()
            assert metrics.submitted_runs == 6
            assert metrics.completed == 6
            assert metrics.misses == 1
        finally:
            service.close()

    def test_a_coalesced_run_keeps_its_own_runtime_options(self):
        """``execution_mode`` and ``threads`` are not in the cache key, so
        runs that differ only there share one flight; each still runs with
        the options it asked for."""
        service, gated, _ = _make_service(workers=4)
        try:
            gated.gate.clear()
            asked = [("interpret", 1), ("vectorize", 2), ("crosscheck", 3)]
            futures = [
                service.submit_run(SOURCE, "gauss_seidel",
                                   [gauss_seidel.initial_condition(6)],
                                   backend="gated", execution_mode=mode,
                                   threads=threads)
                for mode, threads in asked
            ]
            deadline = time.monotonic() + 5.0
            while (service.metrics().coalesced < 2
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert service.metrics().coalesced == 2
            gated.gate.set()
            interps = [f.result(10.0) for f in futures]
            assert gated.lower_count == 1
            assert [(i.execution_mode, i.threads) for i in interps] == asked
        finally:
            gated.gate.set()
            service.close()

    def test_a_program_runs_under_its_source_key(self):
        service, gated, _ = _make_service(workers=1)
        try:
            program = service.session.compile(SOURCE)
            by_program = gauss_seidel.initial_condition(6)
            by_source = by_program.copy(order="F")
            service.run(program, "gauss_seidel", [by_program], backend="gated")
            service.run(SOURCE, "gauss_seidel", [by_source], backend="gated")
            assert gated.lower_count == 1
            assert service.metrics().memory_hits == 1
            assert by_program.tobytes() == by_source.tobytes()
        finally:
            service.close()

    def test_cached_key_fast_path_skips_the_queue(self):
        service, gated, _ = _make_service(workers=1)
        try:
            service.compile(SOURCE, "gated")
            baseline = service.metrics()
            future = service.submit_compile(SOURCE, "gated")
            assert future.done()  # resolved inline, no queue round-trip
            metrics = service.metrics()
            assert metrics.memory_hits == baseline.memory_hits + 1
            assert gated.lower_count == 1
        finally:
            service.close()

    def test_failed_compile_shares_one_exception_with_the_cohort(self):
        service, _, failing = _make_service(workers=4)
        try:
            failing.gate.clear()
            futures = [service.submit_compile(SOURCE, "failing")
                       for _ in range(4)]
            failing.gate.set()
            errors = []
            for future in futures:
                with pytest.raises(ValueError, match="synthetic"):
                    future.result(5.0)
                errors.append(future.exception())
            # One lower, one exception object, shared by the whole cohort.
            assert failing.lower_count == 1
            assert len({id(e) for e in errors}) == 1
            # Later requests short-circuit on the session quarantine with
            # the same original exception object.
            with pytest.raises(ValueError, match="synthetic"):
                service.compile(SOURCE, "failing")
            assert failing.lower_count == 1
            assert service.session.resilience_stats["quarantine_hits"] == 1
        finally:
            failing.gate.set()
            service.close()


class TestBackpressure:
    def test_queue_full_raises_typed_rejection(self):
        service, gated, _ = _make_service(workers=1, max_queue=1)
        try:
            gated.gate.clear()
            # Occupy the only worker...
            first = service.submit_compile(SOURCE, "gated")
            assert gated.started.wait(5.0)
            # ...fill the queue with a second key...
            second = service.submit_compile(OTHER_SOURCE, "gated")
            # ...and the third distinct key must be rejected, typed.
            with pytest.raises(ServiceRejected) as excinfo:
                service.submit_compile(SOURCE, "gated", fuse_stencils=False)
            assert excinfo.value.max_queue == 1
            metrics = service.metrics()
            assert metrics.rejected == 1
            assert metrics.queue_depth_high_water >= 1
            gated.gate.set()
            assert first.result(10.0) is not None
            assert second.result(10.0) is not None
        finally:
            gated.gate.set()
            service.close()

    def test_rejected_flight_resolves_coalesced_waiters(self):
        """A submit whose enqueue is rejected must fail its own future, so
        racers that coalesced onto it do not hang forever."""
        service, gated, _ = _make_service(workers=1, max_queue=1)
        try:
            gated.gate.clear()
            service.submit_compile(SOURCE, "gated")
            assert gated.started.wait(5.0)
            service.submit_compile(OTHER_SOURCE, "gated")
            with pytest.raises(ServiceRejected):
                service.submit_compile(SOURCE, "gated", fuse_stencils=False)
        finally:
            gated.gate.set()
            service.close()
        # The rejected request never reached a worker: no lower for its key.
        assert gated.lower_count == 2

    def test_coalesced_requests_do_not_consume_queue_capacity(self):
        service, gated, _ = _make_service(workers=1, max_queue=1)
        try:
            gated.gate.clear()
            first = service.submit_compile(SOURCE, "gated")
            assert gated.started.wait(5.0)
            queued = service.submit_compile(OTHER_SOURCE, "gated")
            # The queue is full, but duplicates of an in-flight key coalesce
            # without admission — no rejection.
            dup = service.submit_compile(SOURCE, "gated")
            assert dup is first
            gated.gate.set()
            assert queued.result(10.0) is not None
        finally:
            gated.gate.set()
            service.close()

    def test_admission_count_survives_many_clients(self):
        """Eight clients, one request outstanding each, never fill a
        ``max_queue=8`` admission: a lost update of the count of requests
        waiting for a worker would drift it up until one was rejected."""
        service, _, _ = _make_service(workers=4, max_queue=8)
        clients, requests = 8, 25
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def client():
                for _ in range(requests):
                    service.run(SOURCE, "gauss_seidel",
                                [gauss_seidel.initial_condition(6)],
                                timeout=10.0)

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            service.close()
        metrics = service.metrics()
        assert metrics.rejected == 0
        assert metrics.completed == clients * requests
        assert metrics.latency["queue_wait"]["count"] == clients * requests


class TestTimeouts:
    def test_blocking_compile_times_out_typed(self):
        service, gated, _ = _make_service(workers=1)
        try:
            gated.gate.clear()
            started = time.perf_counter()
            with pytest.raises(ServiceTimeout):
                service.compile(SOURCE, "gated", timeout=0.05)
            assert time.perf_counter() - started < 5.0
            assert service.metrics().timeouts == 1
            # The flight kept running: once the gate opens, a retry is served
            # from the cache without a second lower.
            gated.gate.set()
            compiled = service.compile(SOURCE, "gated", timeout=10.0)
            assert compiled is not None
            assert gated.lower_count == 1
        finally:
            gated.gate.set()
            service.close()

    @pytest.mark.parametrize("bad", [0, -1, "1", True])
    def test_a_bad_timeout_is_refused_at_submission(self, bad):
        """A timeout that can never be met is an OptionError naming it
        before the request is admitted, not a ServiceTimeout counted later;
        ``None`` means no deadline."""
        service, _, _ = _make_service(workers=1)
        try:
            with pytest.raises(OptionError, match="timeout"):
                service.compile(SOURCE, "gated", timeout=bad)
            with pytest.raises(OptionError, match="timeout"):
                service.run(SOURCE, "gauss_seidel",
                            [gauss_seidel.initial_condition(6)], timeout=bad)
            metrics = service.metrics()
            assert (metrics.submitted_compiles, metrics.submitted_runs,
                    metrics.timeouts) == (0, 0, 0)
            assert service.compile(SOURCE, "gated", timeout=None) is not None
        finally:
            service.close()


class TestLifecycleAndMetrics:
    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="workers"):
            CompileService(Session(), workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            CompileService(Session(), max_queue=0)

    @pytest.mark.parametrize("name, value", [
        ("workers", "2"), ("workers", 2.5), ("workers", True),
        ("max_queue", None), ("max_queue", 1.5), ("max_queue", True),
    ])
    def test_counts_that_are_not_positive_ints_name_their_parameter(
            self, name, value):
        """The rule ``threads`` follows: no raw TypeError from a comparison,
        and no float or bool taken for a count."""
        with pytest.raises(OptionError, match=f"^{name} must be an integer "
                                              f">= 1, got {value!r}"):
            CompileService(Session(), **{name: value})

    @pytest.mark.parametrize("args", [5, None, "field"])
    def test_args_that_are_not_a_sequence_are_refused_at_submission(self,
                                                                    args):
        """``args`` is the entry's argument list: anything else is an
        OptionError naming it at submission, not a TypeError raised from a
        worker thread."""
        service, _, _ = _make_service(workers=1)
        try:
            with pytest.raises(OptionError, match="args must be a list or "
                                                  "tuple .*'gauss_seidel'"):
                service.run(SOURCE, "gauss_seidel", args)
            with pytest.raises(OptionError, match="args"):
                service.submit_run(SOURCE, "gauss_seidel", args)
            metrics = service.metrics()
            assert (metrics.submitted_runs, metrics.failed) == (0, 0)
        finally:
            service.close()

    @pytest.mark.parametrize("removed", [{"schedule": "dynamic"},
                                         {"chunk_size": 4}])
    def test_a_removed_openmp_option_is_refused_by_name(self, removed):
        """No backend has an OpenMP schedule clause: a request naming it is an
        OptionError at submission, before anything is queued."""
        service, _, _ = _make_service(workers=1)
        try:
            [(option, value)] = removed.items()
            for submit in (service.submit_compile, service.compile):
                with pytest.raises(OptionError,
                                   match=f"backend 'openmp'.*'{option}'"):
                    submit(SOURCE, "openmp", lower_to_scf=True, **removed)
            with pytest.raises(OptionError, match=f"'{option}'"):
                service.submit_run(SOURCE, "gauss_seidel", backend="openmp",
                                   **removed)
            metrics = service.metrics()
            assert (metrics.submitted_compiles, metrics.submitted_runs) == (0, 0)
        finally:
            service.close()

    def test_conflicting_store_rejected(self, tmp_path):
        session = Session(store=ArtifactStore(tmp_path / "a"))
        with pytest.raises(ValueError, match="different store"):
            CompileService(session, store=ArtifactStore(tmp_path / "b"))

    def test_closed_service_rejects_requests(self):
        service, _, _ = _make_service(workers=1)
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.submit_compile(SOURCE, "cpu")
        service.close()  # idempotent

    def test_close_finishes_accepted_requests_and_joins_every_worker(self):
        service, gated, _ = _make_service(workers=2)
        gated.gate.clear()
        futures = [service.submit_compile(source, "gated")
                   for source in (SOURCE, OTHER_SOURCE)]
        opener = threading.Timer(0.05, gated.gate.set)
        opener.start()
        service.close()
        opener.join(5.0)
        assert all(future.done() and future.exception() is None
                   for future in futures)
        assert not [thread for thread in threading.enumerate()
                    if thread.name.startswith("compile-service")]

    def test_context_manager_closes(self):
        with _make_service(workers=1)[0] as service:
            service.compile(SOURCE, "cpu")
        with pytest.raises(RuntimeError, match="closed"):
            service.submit_compile(SOURCE, "cpu")

    def test_metrics_table_renders(self, tmp_path):
        with CompileService(store=ArtifactStore(tmp_path),
                            workers=2) as service:
            field = gauss_seidel.initial_condition(6)
            service.run(SOURCE, "gauss_seidel", [field],
                        execution_mode="vectorize")
            table = service_metrics_table(service.metrics())
        for needle in ("coalesced", "queue_depth_high_water", "disk_hits",
                       "lowers (misses)", "latency[execute]", "store"):
            assert needle in table

    def test_metrics_latency_percentiles_present(self):
        service, _, _ = _make_service(workers=2)
        try:
            for _ in range(3):
                service.compile(OTHER_SOURCE, "cpu")
            latency = service.metrics().latency
            assert latency["lower"]["count"] >= 1
            assert latency["queue_wait"]["count"] >= 1
            assert latency["lower"]["p50"] <= latency["lower"]["max"]
        finally:
            service.close()
