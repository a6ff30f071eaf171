"""Acceptance: fleet-wide single-flight + cross-process warm starts.

The ISSUE-8 contract, asserted end to end:

* N >= 8 concurrent client threads, each repeatedly running a mixed workload
  over both apps (Gauss-Seidel and PW advection) across several backends,
  perform **exactly one backend lower per distinct (source, backend,
  options) key** fleet-wide — measured by service metrics;
* every concurrent result is **bitwise identical** to a serial run;
* a **cold process** (fresh session, fresh store handle over the same
  directory) reloads every artifact from the store and performs **zero
  lowers**.
"""

import threading

import pytest

from repro.api import Session
from repro.apps import gauss_seidel, pw_advection
from repro.serve import ArtifactStore, CompileService

N_CLIENTS = 8
REPEATS = 3

GS_SOURCE = gauss_seidel.generate_source(8, niters=2)
PW_SOURCE = pw_advection.generate_source(8, niters=1)

#: The mixed workload: (label, source, backend, compile-time options).  Three
#: distinct artifact keys over both apps and three backends.
WORKLOADS = [
    ("gs-cpu", GS_SOURCE, "cpu", {"lower_to_scf": True}),
    ("gs-gpu", GS_SOURCE, "gpu", {"lower_to_scf": True}),
    ("pw-omp", PW_SOURCE, "openmp", {"lower_to_scf": True}),
]


def _fresh_args(label):
    if label.startswith("gs"):
        return "gauss_seidel", [gauss_seidel.initial_condition(8)]
    u, v, w, su, sv, sw = pw_advection.initial_fields(8)
    return "pw_advection", [u, v, w, su, sv, sw]


def _result_bytes(args):
    return b"".join(a.tobytes() for a in args)


def _serial_reference():
    """One serial run of each workload on a plain session."""
    session = Session()
    reference = {}
    for label, source, backend, options in WORKLOADS:
        compiled = session.lower(source, backend, **options)
        entry, args = _fresh_args(label)
        compiled.with_options(execution_mode="vectorize").run(entry, *args)
        reference[label] = _result_bytes(args)
    return reference


@pytest.fixture(scope="module")
def serial_reference():
    return _serial_reference()


class TestStressAcceptance:
    def test_fleet_wide_single_flight_and_bitwise_identity(
            self, tmp_path, serial_reference):
        store = ArtifactStore(tmp_path / "store")
        outcomes = []
        failures = []
        barrier = threading.Barrier(N_CLIENTS)

        with CompileService(store=store, workers=4,
                            max_queue=128) as service:

            def client(client_id):
                try:
                    barrier.wait(timeout=30)
                    for repeat in range(REPEATS):
                        for label, source, backend, options in WORKLOADS:
                            entry, args = _fresh_args(label)
                            service.run(
                                source, entry, args, backend=backend,
                                execution_mode="vectorize", timeout=120,
                                **options)
                            outcomes.append((label, _result_bytes(args)))
                except BaseException as exc:  # pragma: no cover
                    failures.append((client_id, exc))

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(N_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            metrics = service.metrics()

        assert not failures, failures

        # Exactly one backend lower per distinct key, fleet-wide, measured
        # by the service metrics.
        assert metrics.misses == len(WORKLOADS)
        assert metrics.submitted_runs == N_CLIENTS * REPEATS * len(WORKLOADS)
        assert metrics.completed == metrics.submitted_runs
        assert metrics.failed == 0
        assert metrics.rejected == 0

        # Every concurrent result is bitwise identical to the serial run.
        assert len(outcomes) == N_CLIENTS * REPEATS * len(WORKLOADS)
        for label, payload in outcomes:
            assert payload == serial_reference[label], (
                f"workload {label} diverged from the serial reference"
            )

        # The store now holds one entry per distinct key.
        assert len(store) == len(WORKLOADS)
        assert store.stats["writes"] == len(WORKLOADS)

    def test_cold_process_with_warm_store_performs_zero_lowers(
            self, tmp_path, serial_reference):
        store_dir = tmp_path / "store"
        warm = Session(store=ArtifactStore(store_dir))
        for _, source, backend, options in WORKLOADS:
            warm.lower(source, backend, **options)
        assert warm.cache_stats["misses"] == len(WORKLOADS)

        # "Kill the process": a brand-new session and a brand-new store
        # handle over the same directory share nothing in memory.
        cold = Session(store=ArtifactStore(store_dir))
        for label, source, backend, options in WORKLOADS:
            compiled = cold.lower(source, backend, **options)
            entry, args = _fresh_args(label)
            compiled.with_options(execution_mode="vectorize").run(entry, *args)
            assert _result_bytes(args) == serial_reference[label], (
                f"store-reloaded workload {label} diverged"
            )
        stats = cold.cache_stats
        assert stats["misses"] == 0, "cold process must skip every lower"
        assert stats["disk_hits"] == len(WORKLOADS)

    def test_concurrent_cold_sessions_share_the_store(self, tmp_path):
        """Separate sessions (simulating separate processes) racing the same
        cold store stay correct: results identical, store intact."""
        store_dir = tmp_path / "race"
        source = GS_SOURCE
        payloads = []
        failures = []
        barrier = threading.Barrier(4)

        def process(i):
            try:
                session = Session(store=ArtifactStore(store_dir))
                barrier.wait(timeout=30)
                compiled = session.lower(source, "cpu", lower_to_scf=True)
                entry, args = _fresh_args("gs")
                compiled.with_options(execution_mode="vectorize").run(entry, *args)
                payloads.append(_result_bytes(args))
            except BaseException as exc:  # pragma: no cover
                failures.append((i, exc))

        threads = [threading.Thread(target=process, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        assert len(set(payloads)) == 1
        store = ArtifactStore(store_dir)
        assert len(store) == 1
