"""Differential tests for the distributed multi-rank execution engine.

Every backend that claims to compute the same thing must be made to prove
it: the distributed-vectorized path is checked against the single-rank
vectorized path, the scalar interpreter oracle, and the numpy reference —
bitwise where the execution plans are structurally identical, to 1e-12
everywhere else — across process grids, odd non-divisible domains, pool
sizes and repeated runs.
"""

import contextvars
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.api import OptionError, Session
from repro.apps import gauss_seidel
from repro.harness import measured_distributed_scaling
from repro.resilience import RecoveryReport, ResilienceOptions
from repro.runtime import (
    CartesianDecomposition,
    DistributedExecutor,
    DistributedRunResult,
    InterpreterError,
    MPIError,
    SimulatedCommunicator,
)

GRIDS = [(1, 1), (2, 1), (2, 2), (4, 1)]


def run_distributed(session, grid, global_field, niters, execution_mode,
                    threads=1):
    """One executor run of Gauss-Seidel through the fluent API."""
    n = global_field.shape[0]
    program = session.compile(
        gauss_seidel.generate_source_shaped((n + 2,) * 3, niters=1)
    )
    plan = program.lower("dmp", grid=grid, execution_mode=execution_mode,
                         threads=threads).distribute(
        source_builder=gauss_seidel.generate_source_shaped)
    return plan.run(global_field, iterations=niters)


class FakeRank:
    """An interpreter stand-in: ``call`` runs ``body(rank, comm)``."""

    kernels = None

    def __init__(self, body, rank, comm):
        self.body, self.rank, self.comm = body, rank, comm
        self.stats = {"mpi_messages": 0, "mpi_bytes": 0, "halo_seconds": 0.0}

    def call(self, entry, local):
        self.body(self.rank, self.comm)


def fake_ranks(body):
    """An interpreter factory whose every rank runs ``body``."""
    def make_interpreter(rank, local_shape, comm, decomposition):
        return FakeRank(body, rank, comm)
    return make_interpreter


@pytest.fixture(scope="module")
def session():
    # One session for the whole module: every distinct (shape, grid) compiles
    # once, every repeated compile is a measured cache hit.
    return Session()


class TestDifferentialAgreement:
    """Distributed-vectorized vs single-rank-vectorized vs scalar oracle."""

    NITERS = 2

    def global_field(self, n):
        rng = np.random.default_rng(11)
        return np.asfortranarray(rng.random((n, n, n)))

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("n", [12, 13])  # divisible and odd/non-divisible
    def test_distributed_matches_single_rank_bitwise(self, session, grid, n):
        field = self.global_field(n)
        single = run_distributed(session, (1, 1), field, self.NITERS, "vectorize")
        multi = run_distributed(session, grid, field, self.NITERS, "vectorize")
        # The executor pads every plan the same way (zero ghosts at the
        # global boundary, exchanged values at rank interfaces), and the
        # Jacobi update is pointwise — so any grid agrees with the
        # single-rank run bit for bit, on the whole domain.
        np.testing.assert_array_equal(multi.field, single.field)

    @pytest.mark.parametrize("grid", [(2, 2), (4, 1)])
    def test_vectorized_matches_scalar_oracle(self, session, grid):
        field = self.global_field(12)
        vectorized = run_distributed(session, grid, field, self.NITERS, "vectorize")
        oracle = run_distributed(session, grid, field, self.NITERS, "interpret")
        assert np.abs(vectorized.field - oracle.field).max() < 1e-12

    @pytest.mark.parametrize("n", [12, 13])
    def test_four_ranks_match_reference_interior(self, session, n):
        """The acceptance bar: the 4-rank vectorized distributed run agrees
        with the single-rank vectorized run to 1e-12 on the interior, and
        both reproduce the global Jacobi reference there."""
        field = self.global_field(n)
        reference = gauss_seidel.reference_jacobi(field, self.NITERS)
        single = run_distributed(session, (1, 1), field, self.NITERS, "vectorize")
        multi = run_distributed(session, (2, 2), field, self.NITERS, "vectorize")
        margin = self.NITERS
        interior = tuple(slice(margin, s - margin) for s in field.shape)
        assert np.abs(multi.field[interior] - single.field[interior]).max() < 1e-12
        assert multi.max_interior_error(reference, margin) < 1e-12
        assert single.max_interior_error(reference, margin) < 1e-12

    def test_input_field_not_mutated(self, session):
        field = self.global_field(12)
        saved = field.copy()
        run_distributed(session, (2, 2), field, self.NITERS, "vectorize")
        np.testing.assert_array_equal(field, saved)

    def test_measured_multirank_scaling_series(self):
        """The harness's measured 1→8-rank series: every rank count reproduces
        the global reference to 1e-12 on the interior, with halo traffic
        growing with the number of rank-rank interfaces."""
        measured = measured_distributed_scaling(
            rank_grids=((1, 1), (2, 1), (2, 2), (4, 2)), n=16, niters=2, repeats=1
        )
        ranks_seen = [row[0] for row in measured.rows]
        assert ranks_seen == [1, 2, 4, 8]
        for ranks, grid, seconds, mcells, speedup, error in measured.rows:
            assert error < 1e-12, (ranks, error)
            assert seconds > 0 and mcells > 0
        messages = {row[0]: measured.notes[f"ranks={row[0]}"]["messages"]
                    for row in measured.rows}
        assert messages[1] == 0
        assert messages[2] < messages[4] < messages[8]


class TestDeterminism:
    def test_identical_bits_across_runs(self, session):
        """Two runs (and hence two worker interleavings) must produce
        identical bits: rank execution is synchronised by messages, never by
        scheduling."""
        rng = np.random.default_rng(23)
        field = np.asfortranarray(rng.random((12, 12, 12)))
        first = run_distributed(session, (2, 2), field, 2, "vectorize")
        second = run_distributed(session, (2, 2), field, 2, "vectorize")
        np.testing.assert_array_equal(first.field, second.field)
        assert first.messages == second.messages
        assert first.bytes == second.bytes

    def test_concurrent_runs_on_one_pool_complete(self, session):
        """Two distributed runs launched concurrently with the same rank
        count each run on their own rank threads — they neither interleave
        their rank tasks nor deadlock until the receive timeout."""
        rng = np.random.default_rng(37)
        field = np.asfortranarray(rng.random((8, 8, 8)))
        results = {}

        def one_run(tag):
            results[tag] = run_distributed(session, (2, 2), field, 2,
                                           "vectorize")

        workers = [threading.Thread(target=one_run, args=(t,)) for t in (0, 1)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=20.0)
        assert len(results) == 2
        np.testing.assert_array_equal(results[0].field, results[1].field)

    def test_concurrent_runs_do_not_wait_for_each_other(self):
        """Run A's ranks wait for a rank of run B, started while A is live, on
        the same grid: both complete, because no run holds the other back,
        and no rank thread serves both."""
        a_live, b_started = threading.Event(), threading.Event()
        threads = {"a": set(), "b": set()}

        def a_rank(rank, comm):
            threads["a"].add(threading.get_ident())
            a_live.set()
            if not b_started.wait(2.0):
                raise RuntimeError("run B never started")

        def b_rank(rank, comm):
            threads["b"].add(threading.get_ident())
            b_started.set()

        executor = DistributedExecutor((2, 1))
        field = np.asfortranarray(np.arange(64.0).reshape(4, 4, 4))
        outcomes = {}

        def run(tag, body):
            try:
                outcomes[tag] = executor.run(field, fake_ranks(body), "e")
            except BaseException as exc:  # noqa: BLE001 — asserted below
                outcomes[tag] = exc

        first = threading.Thread(target=run, args=("a", a_rank))
        first.start()
        assert a_live.wait(5.0)
        second = threading.Thread(target=run, args=("b", b_rank))
        second.start()
        for thread in (first, second):
            thread.join(10.0)
            assert not thread.is_alive()
        for tag in "ab":
            assert isinstance(outcomes[tag], DistributedRunResult), outcomes[tag]
            assert outcomes[tag].field.tobytes() == field.tobytes()
        assert len(threads["a"]) == len(threads["b"]) == 2
        assert not threads["a"] & threads["b"]

    def test_repeated_runs_identical(self, session):
        rng = np.random.default_rng(29)
        field = np.asfortranarray(rng.random((8, 8, 8)))
        runs = [run_distributed(session, (2, 1), field, 2, "vectorize")
                for _ in range(2)]
        np.testing.assert_array_equal(runs[0].field, runs[1].field)


PROBE = contextvars.ContextVar("probe", default=None)


class TestRankWorkers:
    """Ranks run on idle rank workers that later runs take again."""

    def test_a_second_run_starts_no_thread_and_gives_each_rank_its_own(self):
        ran = []

        def body(rank, comm):
            ran.append((rank, threading.current_thread()))

        executor = DistributedExecutor((2, 2))
        field = np.asfortranarray(np.arange(64.0).reshape(4, 4, 4))
        executor.run(field, fake_ranks(body), "e")
        threads = threading.enumerate()
        del ran[:]
        # Restartable: one wave per iteration, each taking idle workers.
        executor.run(field, fake_ranks(body), "e", iterations=3,
                     resilience=ResilienceOptions(max_restarts=1))
        assert threading.enumerate() == threads
        assert sorted(rank for rank, _ in ran) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
        for wave in range(3):  # every rank of a wave on a thread of its own
            workers = {thread for _, thread in ran[4 * wave:4 * wave + 4]}
            assert len(workers) == 4 and threading.current_thread() not in workers
        assert all(t.name.startswith("repro-rank-") and t.daemon for _, t in ran)

    def test_no_context_state_carries_from_one_run_into_the_next(self):
        def body(rank, comm):
            assert PROBE.get() is None and np.geterr()["divide"] == "warn"
            PROBE.set(rank)
            np.seterr(divide="raise")

        executor = DistributedExecutor((2, 1))
        field = np.asfortranarray(np.arange(64.0).reshape(4, 4, 4))
        for _ in range(3):  # a task per rank and run, on threads used before
            executor.run(field, fake_ranks(body), "e")

    def test_idle_rank_workers_do_not_hold_the_interpreter_open(self):
        script = textwrap.dedent("""
            import numpy as np
            import repro
            from repro.apps import gauss_seidel

            n = 8
            plan = repro.compile(gauss_seidel.generate_source_shaped(
                (n + 2,) * 3, niters=1)).lower(
                "dmp", grid=(2, 2), execution_mode="vectorize").distribute(
                source_builder=gauss_seidel.generate_source_shaped)
            field = np.asfortranarray(np.random.default_rng(0).random((n,) * 3))
            plan.run(field, iterations=1)
            print("ran", flush=True)
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True)
        try:
            assert child.stdout.readline() == "ran\n", child.stderr.read()
            ran = time.perf_counter()
            assert child.wait(timeout=30) == 0, child.stderr.read()
            assert time.perf_counter() - ran < 5.0
        finally:
            child.kill()
            child.wait()


    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_rank_threads(self):
        """The idle workers' threads stay in the parent: a child forked after
        a run must not hand its ranks to them."""
        script = textwrap.dedent("""
            import os, sys, time
            import numpy as np
            from repro.runtime import DistributedExecutor

            class Rank:
                kernels = None
                def __init__(self):
                    self.stats = {"mpi_messages": 0, "mpi_bytes": 0,
                                  "halo_seconds": 0.0}
                def call(self, entry, local):
                    pass

            def run():
                DistributedExecutor((2, 1)).run(
                    np.zeros((4, 4, 4), order="F"), lambda *a: Rank(), "e")

            run()
            pid = os.fork()
            if pid == 0:
                run()
                os._exit(0)
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    sys.exit(os.waitstatus_to_exitcode(status))
                time.sleep(0.05)
            os.kill(pid, 9)
            sys.exit("the child's run hung")
        """)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestExecutorMechanics:
    def test_scatter_physical_ghost_fill_and_gather(self):
        executor = DistributedExecutor((2, 2))
        rng = np.random.default_rng(5)
        field = np.asfortranarray(rng.random((8, 8, 4)))
        decomposition = executor.decomposition_for(field.shape)
        locals_by_rank = executor.scatter(field, decomposition)
        assert len(locals_by_rank) == 4
        # Rank 0 owns [0:4, 0:4, 0:4]: its low x/y ghosts sit beyond the
        # global boundary (zero), its high x/y ghost faces carry the global
        # planes x=4 / y=4 over the owned interior of the other dims.
        local = locals_by_rank[0]
        assert local.shape == (6, 6, 6)
        assert local.flags["F_CONTIGUOUS"]
        np.testing.assert_array_equal(local[1:-1, 1:-1, 1:-1], field[0:4, 0:4, :])
        assert np.all(local[0, :, :] == 0.0) and np.all(local[:, 0, :] == 0.0)
        np.testing.assert_array_equal(local[-1, 1:-1, 1:-1], field[4, 0:4, :])
        np.testing.assert_array_equal(local[1:-1, -1, 1:-1], field[0:4, 4, :])
        # z is not decomposed: no global data beyond the local box.
        assert np.all(local[:, :, 0] == 0.0) and np.all(local[:, :, -1] == 0.0)
        gathered = executor.gather(locals_by_rank, decomposition)
        np.testing.assert_array_equal(gathered, field)

    def test_gather_writes_every_cell_of_an_uneven_grid(self):
        """``gather`` allocates its result uninitialised: the owned boxes
        must tile the global array, remainders included."""
        executor = DistributedExecutor((2, 3))
        field = np.asfortranarray(np.random.default_rng(7).random((7, 8, 3)))
        decomposition = executor.decomposition_for(field.shape)
        covered = np.zeros(field.shape, dtype=int)
        for rank in range(executor.num_ranks):
            covered[tuple(slice(lb, ub)
                          for lb, ub in decomposition.local_bounds(rank))] += 1
        assert np.all(covered == 1)
        gathered = executor.gather(executor.scatter(field, decomposition),
                                   decomposition)
        np.testing.assert_array_equal(gathered, field)

    def test_rank_stats_accounting(self, session):
        rng = np.random.default_rng(31)
        field = np.asfortranarray(rng.random((8, 8, 8)))
        run = run_distributed(session, (2, 1), field, 2, "vectorize")
        assert [s.rank for s in run.rank_stats] == [0, 1]
        for stats in run.rank_stats:
            assert stats.messages == 2  # one send per iteration to the peer
            assert stats.bytes > 0
            assert stats.total_seconds > 0
            assert stats.local_shape == (6, 10, 10)
        assert run.messages == sum(s.messages for s in run.rank_stats)
        assert run.bytes == sum(s.bytes for s in run.rank_stats)

    def test_indivisible_extent_rejected(self):
        executor = DistributedExecutor((4, 1))
        with pytest.raises(MPIError, match="cannot split"):
            executor.decomposition_for((3, 8, 8))

    def test_grid_splits_the_leading_dimensions(self):
        """The grid's dimension d splits the field's dimension d; a grid of
        more dimensions than the field has is refused by name."""
        executor = DistributedExecutor((2, 3))
        decomposition = executor.decomposition_for((4, 9, 5))
        assert [decomposition.local_bounds(r) for r in (0, 5)] == [
            [(0, 2), (0, 3), (0, 5)], [(2, 4), (6, 9), (0, 5)]]
        with pytest.raises(MPIError, match="3-d process grid .* 2-d field"):
            DistributedExecutor((2, 1, 1)).decomposition_for((8, 8))

    @pytest.mark.parametrize("policy", [None, ResilienceOptions()],
                             ids=["fail-fast", "restartable"])
    def test_failing_rank_aborts_the_fleet_with_its_own_error(self, session,
                                                              policy):
        """Regression: a rank that dies of anything but an injected crash
        must wake its peers at once and surface *its* exception — not leave
        them to wait out the receive timeout and report that instead."""
        n = 8
        compiled = session.compile(
            gauss_seidel.generate_source_shaped((n // 2 + 2, n + 2, n + 2))
        ).lower("dmp", grid=(2, 1), execution_mode="vectorize")

        class Exploding:
            kernels = None
            stats = {"mpi_messages": 0, "mpi_bytes": 0, "halo_seconds": 0.0}

            def call(self, entry, local):
                raise RuntimeError("rank 1 fell over")

        def make_interpreter(rank, local_shape, comm, decomposition):
            if rank == 1:
                return Exploding()
            return compiled.interpreter(comm=comm, rank=rank,
                                        decomposition=decomposition)

        timeout = 5.0
        executor = DistributedExecutor((2, 1), timeout=timeout)
        field = np.asfortranarray(np.random.default_rng(41).random((n, n, n)))
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="rank 1 fell over"):
            executor.run(field, make_interpreter, "gauss_seidel",
                         iterations=2, resilience=policy)
        assert time.perf_counter() - started < timeout / 5

    def test_a_slow_rank_is_waited_for_not_recovered(self, session):
        """Nothing was injected, so a rank that starts every iteration 30 ms
        late costs its peers time, not a recovery round: the report is all
        zeros and the bits are those of an undelayed run."""
        n = 12
        compiled = session.compile(
            gauss_seidel.generate_source_shaped((n // 2 + 2, n // 2 + 2, n + 2))
        ).lower("dmp", grid=(2, 2), execution_mode="vectorize")

        class Late:
            def __init__(self, interp):
                self.interp = interp

            def __getattr__(self, name):
                return getattr(self.interp, name)

            def call(self, entry, local):
                time.sleep(0.03)
                return self.interp.call(entry, local)

        def factory(late_rank):
            def make_interpreter(rank, local_shape, comm, decomposition):
                interp = compiled.interpreter(comm=comm, rank=rank,
                                              decomposition=decomposition)
                return Late(interp) if rank == late_rank else interp
            return make_interpreter

        executor = DistributedExecutor((2, 2))
        field = np.asfortranarray(np.random.default_rng(43).random((n, n, n)))
        late = executor.run(field, factory(1), "gauss_seidel", iterations=2)
        prompt = executor.run(field, factory(None), "gauss_seidel",
                              iterations=2)
        assert late.recovery == RecoveryReport()
        assert late.field.tobytes() == prompt.field.tobytes()

    def test_a_halo_with_no_communicator_is_refused(self, session):
        """A rank with real peers and no communicator cannot exchange its
        halo: the send would go nowhere and the ghost planes keep stale
        data, so the run stops with a typed error instead.  A one-rank grid
        has no peers and runs."""
        n = 8
        split = session.compile(
            gauss_seidel.generate_source_shaped((n // 2 + 2, n + 2, n + 2))
        ).lower("dmp", grid=(2, 1), execution_mode="vectorize")
        interp = split.interpreter(
            rank=0, decomposition=CartesianDecomposition((n, n, n), (2, 1)))
        with pytest.raises(InterpreterError,
                           match="mpi.isend to rank 1 requires a communicator"):
            interp.call("gauss_seidel",
                        np.zeros((n // 2 + 2, n + 2, n + 2), order="F"))

        whole = session.compile(
            gauss_seidel.generate_source_shaped((n + 2,) * 3)
        ).lower("dmp", grid=(1, 1), execution_mode="vectorize")
        alone = whole.run(
            "gauss_seidel", np.zeros((n + 2,) * 3, order="F"), rank=0,
            decomposition=CartesianDecomposition((n, n, n), (1, 1)))
        assert alone.stats["mpi_messages"] == 0

    @pytest.mark.parametrize("iterations", [0, True])
    def test_bad_iterations_rejected(self, iterations):
        executor = DistributedExecutor((1, 1))
        with pytest.raises(MPIError, match="iterations"):
            executor.run(np.zeros((4, 4, 4)), lambda *a: None, "e",
                         iterations=iterations)


class TestFluentValidation:
    def test_non_dmp_backend_rejected(self, session):
        compiled = session.compile(
            gauss_seidel.generate_source(8)
        ).lower("cpu")
        with pytest.raises(OptionError, match="requires the 'dmp' backend"):
            compiled.distribute()

    def test_shape_mismatch_diagnostic_without_source_builder(self, session):
        compiled = session.compile(
            gauss_seidel.generate_source(10)
        ).lower("dmp", grid=(2, 1))
        plan = compiled.distribute()
        with pytest.raises(OptionError, match="source_builder"):
            plan.run(np.zeros((12, 12, 12), order="F"))

    def test_a_later_ranks_wrong_shape_fails_before_any_send(
            self, session, monkeypatch):
        """11 cells over two ranks: rank 0 owns the compiled (8, 13, 13)
        padded box, rank 1 a (7, 13, 13) one.  Every rank's interpreter is
        built before any rank runs, so rank 1's mismatch raises while no
        halo message has been sent."""
        sends = []
        real_send = SimulatedCommunicator.send
        monkeypatch.setattr(
            SimulatedCommunicator, "send",
            lambda comm, *args: sends.append(args) or real_send(comm, *args))
        plan = session.compile(
            gauss_seidel.generate_source_shaped((8, 13, 13))
        ).lower("dmp", grid=(2, 1), execution_mode="vectorize").distribute()
        with pytest.raises(OptionError, match=r"rank-local arrays have shape "
                                              r"\(7, 13, 13\)"):
            plan.run(np.zeros((11, 11, 11), order="F"))
        assert sends == []
        # The spy sees the traffic of a run that does start.
        plan.run(np.zeros((12, 11, 11), order="F"))
        assert sends

    @pytest.mark.parametrize("shape", [(12, 12), (12, 12, 12, 2)])
    def test_field_of_the_wrong_rank_names_both_ranks(self, session, shape):
        plan = session.compile(gauss_seidel.generate_source(8)).lower(
            "dmp", grid=(2, 2)).distribute(
            source_builder=gauss_seidel.generate_source_shaped)
        with pytest.raises(OptionError, match=rf"rank-3 arrays .* rank {len(shape)}$"):
            plan.run(np.zeros(shape, order="F"))

    def test_uniform_domain_runs_without_source_builder(self, session):
        # (2, 1) over 8x8x8 gives every rank a (6, 10, 10) padded box, which
        # is what a (6, 10, 10) source compiles to — no builder needed.
        compiled = session.compile(
            gauss_seidel.generate_source_shaped((6, 10, 10))
        ).lower("dmp", grid=(2, 1), execution_mode="vectorize")
        rng = np.random.default_rng(3)
        field = np.asfortranarray(rng.random((8, 8, 8)))
        run = compiled.distribute().run(field, iterations=1)
        reference = gauss_seidel.reference_jacobi(field, 1)
        assert run.max_interior_error(reference, margin=1) < 1e-12


class TestCommunicatorDiagnostics:
    """Regression: a missing send must surface a diagnosable error fast,
    not hang CI for the full 30 s default timeout."""

    def test_timeout_message_names_rank_source_tag_and_pending(self):
        comm = SimulatedCommunicator(2, timeout=0.05)
        comm.send(0, 1, 7, np.ones(3))  # in flight, but NOT what we wait for
        with pytest.raises(MPIError) as excinfo:
            comm.receive(source=1, dest=0, tag=4)
        message = str(excinfo.value)
        assert "rank 0" in message
        assert "from rank 1" in message
        assert "tag 4" in message
        assert "0.05" in message
        assert "src=0 dest=1 tag=7" in message  # the pending-queue snapshot

    def test_timeout_message_reports_empty_queue(self):
        comm = SimulatedCommunicator(2)
        with pytest.raises(MPIError, match="pending messages: none"):
            comm.receive(source=1, dest=0, tag=0, timeout=0.01)

    def test_per_call_timeout_overrides_default(self):
        comm = SimulatedCommunicator(2, timeout=30.0)
        with pytest.raises(MPIError, match="after 0.01"):
            comm.receive(source=1, dest=0, tag=0, timeout=0.01)

    def test_deadlocked_distributed_run_is_diagnosable(self):
        """A rank that never sends (mismatched decomposition) fails with the
        pending-message diagnostic instead of hanging."""
        executor = DistributedExecutor((2, 1), timeout=0.1)

        def broken_receiver(rank, comm):
            # Rank 0 expects a message rank 1 never sends.
            if rank == 0:
                comm.receive(source=1, dest=0, tag=3)

        with pytest.raises(MPIError, match="pending messages"):
            executor.run(np.zeros((8, 8, 8)), fake_ranks(broken_receiver),
                         "e")

    def test_invalid_timeout_rejected(self):
        with pytest.raises(MPIError, match="timeout"):
            SimulatedCommunicator(2, timeout=0.0)

    def test_a_fractional_grid_extent_is_refused(self):
        with pytest.raises(MPIError, match="^process grid extent .* got 2.5"):
            DistributedExecutor((2.5, 2))

    @pytest.mark.parametrize("halo", [True, 1.5])
    def test_a_halo_that_is_not_an_int_is_refused(self, halo):
        with pytest.raises(MPIError, match=f"^halo width .* got {halo}"):
            DistributedExecutor((2, 2), halo=halo)

    def test_a_negative_timeout_is_refused_at_construction(self):
        with pytest.raises(MPIError, match="^timeout .* got -1"):
            DistributedExecutor((2, 2), timeout=-1)
