"""Distributed multi-rank execution engine.

The paper's headline result (Figure 6) is distributed-memory Gauss-Seidel
lowered through the DMP dialect to MPI.  This module owns that execution
path end to end: a :class:`DistributedExecutor` scatters a global
Fortran-ordered field over a :class:`repro.runtime.CartesianDecomposition`
(filling the *physical* ghost planes with the global data that borders each
sub-domain), runs one interpreter per rank concurrently on a thread of its
own, drives every halo exchange through one
:class:`repro.runtime.SimulatedCommunicator`, and gathers the owned
interiors back into a global array — returning per-rank statistics
(messages, bytes, halo wall-time, kernel wall-time) alongside the result.

The executor is deliberately compiler-agnostic: it never imports the fluent
API.  Callers hand it a ``make_interpreter(rank, local_shape, comm,
decomposition)`` factory; :class:`repro.api.DistributedProgram` supplies one
that compiles through a session (one artifact per distinct rank-local
shape, memoized) and builds vectorized interpreters.

Rank tasks block inside ``comm.receive`` while they wait for neighbours, so
they must **all** be runnable at once: each wave of a run takes one idle rank
worker per rank (starting a thread only when too few are idle), and a worker
goes back to the idle set when its task ends.  A worker runs one task at a
time, in a fresh :mod:`contextvars` context, so concurrent runs share no
rank thread, never wait for each other, and no context state carries from
one task to the next.  Only a sweep's boxes, which never wait, run on the
shared tile pools of :func:`repro.runtime.sweep.get_executor`.
"""

from __future__ import annotations

import contextvars
import itertools
import os
import threading
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RecoveryReport,
    ResilienceOptions,
)
from .interpreter import Interpreter
from .mpi_runtime import (
    CartesianDecomposition,
    MPIAbort,
    MPIError,
    SimulatedCommunicator,
)

#: Interpreter factory signature: (rank, padded local shape, communicator,
#: decomposition) -> configured Interpreter for that rank.
InterpreterFactory = Callable[
    [int, Tuple[int, ...], SimulatedCommunicator, CartesianDecomposition],
    Interpreter,
]


@dataclass
class RankStats:
    """Measured execution statistics of one simulated rank."""

    rank: int
    #: Owned global ``[lb, ub)`` bounds per dimension (no ghost planes).
    bounds: Tuple[Tuple[int, int], ...]
    #: Full local array shape including ghost planes.
    local_shape: Tuple[int, ...]
    messages: int = 0
    bytes: int = 0
    halo_seconds: float = 0.0
    kernel_seconds: float = 0.0
    total_seconds: float = 0.0


@dataclass
class DistributedRunResult:
    """The gathered global field plus communication/compute accounting."""

    field: np.ndarray
    grid: Tuple[int, ...]
    ranks: int
    iterations: int
    rank_stats: List[RankStats] = field(default_factory=list)
    #: Wall-clock of the whole scatter→ranks→gather run.
    seconds: float = 0.0
    #: Recovery accounting of the run (all-zero when nothing went wrong);
    #: ``recovery.checkpoint_restores`` counts the rollbacks.
    recovery: RecoveryReport = field(default_factory=RecoveryReport)

    @property
    def messages(self) -> int:
        """Halo messages sent by every rank."""
        return sum(r.messages for r in self.rank_stats)

    @property
    def bytes(self) -> int:
        """Halo bytes sent by every rank."""
        return sum(r.bytes for r in self.rank_stats)

    def max_interior_error(self, reference: np.ndarray, margin: int = 1) -> float:
        """Max |field − reference| at least ``margin`` cells from the global
        boundary — the region where boundary-treatment differences between
        the rank-local kernels and a fixed-boundary reference cannot reach
        (the difference propagates inwards one cell per sweep)."""
        reference = np.asarray(reference)
        if reference.shape != self.field.shape:
            raise ValueError(
                f"reference shape {reference.shape} does not match gathered "
                f"field shape {self.field.shape}"
            )
        interior = tuple(slice(margin, s - margin) for s in self.field.shape)
        if any(s.start >= s.stop for s in interior):
            raise ValueError(
                f"margin {margin} leaves no interior in shape {self.field.shape}"
            )
        return float(np.abs(self.field[interior] - reference[interior]).max())


#: The policy of a run given no ``resilience``: the first crash is final, so
#: no checkpoint is ever taken.
FAIL_FAST = ResilienceOptions(max_restarts=0)

#: Rank workers no wave holds; a worker enters as its task ends.
_IDLE: List["_RankWorker"] = []
_IDLE_LOCK = threading.Lock()
_WORKER_NUMBERS = itertools.count()


def _forget_idle_workers() -> None:
    """In a forked child: the workers' threads stayed in the parent."""
    global _IDLE_LOCK
    _IDLE.clear()
    _IDLE_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle_workers)


class _RankWorker:
    """A daemon thread (idle, it never holds the interpreter open at exit)
    that runs the rank tasks it is handed one at a time."""

    def __init__(self):
        self._task: Optional[Tuple[Future, Callable[[Any], Any], Any]] = None
        self._wake = threading.Semaphore(0)
        threading.Thread(target=self._serve, daemon=True,
                         name=f"repro-rank-{next(_WORKER_NUMBERS)}").start()

    def start(self, fn: Callable[[Any], Any], arg: Any) -> Future:
        future: Future = Future()
        self._task = (future, fn, arg)
        self._wake.release()
        return future

    def _serve(self) -> None:
        while True:
            self._wake.acquire()
            future, fn, arg = self._task
            self._task = None
            try:
                outcome, failed = contextvars.Context().run(fn, arg), False
            except BaseException as exc:  # noqa: BLE001 — handed to the waiter
                outcome, failed = exc, True
            with _IDLE_LOCK:
                _IDLE.append(self)
            if failed:
                future.set_exception(outcome)
            else:
                future.set_result(outcome)
            # Idle, the worker keeps nothing of the run it served.
            future = fn = arg = outcome = None


def _run_all_at_once(fn: Callable[[Any], Any], args: Sequence[Any]) -> None:
    """``fn(arg)`` for every ``arg`` at once, each on a rank worker no other
    task holds meanwhile; returns when all are done, then raises the first
    failure in ``args`` order, if any."""
    with _IDLE_LOCK:
        split = max(0, len(_IDLE) - len(args))
        workers = _IDLE[split:]
        del _IDLE[split:]
    workers += [_RankWorker() for _ in range(len(args) - len(workers))]
    futures = [worker.start(fn, arg) for worker, arg in zip(workers, args)]
    wait(futures)
    for future in futures:
        future.result()


def _count(name: str, value: Any, least: int) -> int:
    """``value`` as an ``int`` >= ``least``, else an :class:`MPIError`
    naming ``name``: a ``bool`` is not a count and a float is not an int."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise MPIError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


class DistributedExecutor:
    """Orchestrates scatter → per-rank execution → halo exchange → gather.

    ``grid`` is the Cartesian process grid the leading dimensions of the
    global field are decomposed over (``(2, 2)`` → four ranks, dimensions 0
    and 1 split in two).  ``halo`` is the ghost-plane width every local
    array is padded with on *every* dimension (the stencil's widest access
    offset).  Every rank runs on a rank worker of its own for each wave,
    because a rank blocked in a halo receive must not starve the neighbour
    whose send it waits for.
    ``timeout`` bounds every blocking receive so a genuinely
    deadlocked configuration fails with the communicator's pending-message
    diagnostic instead of hanging.
    """

    def __init__(self, grid: Sequence[int], *, halo: int = 1,
                 timeout: float = 30.0):
        self.grid = tuple(_count("process grid extent", g, 1) for g in grid)
        if not self.grid:
            raise MPIError("process grid must have at least one dimension")
        self.halo = _count("halo width", halo, 0)
        self.num_ranks = 1
        for extent in self.grid:
            self.num_ranks *= extent
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
                or not timeout > 0:
            raise MPIError(f"timeout must be a positive number, got {timeout!r}")
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    # Decomposition / scatter / gather
    # ------------------------------------------------------------------

    def decomposition_for(self, global_shape: Sequence[int]) -> CartesianDecomposition:
        """The block decomposition of ``global_shape`` over this grid."""
        global_shape = tuple(int(s) for s in global_shape)
        if len(self.grid) > len(global_shape):
            raise MPIError(
                f"a {len(self.grid)}-d process grid cannot split a "
                f"{len(global_shape)}-d field"
            )
        for dim, parts in enumerate(self.grid):
            if global_shape[dim] < parts:
                raise MPIError(
                    f"cannot split extent {global_shape[dim]} of dimension "
                    f"{dim} over {parts} ranks"
                )
        return CartesianDecomposition(global_shape, self.grid)

    def scatter(self, global_field: np.ndarray,
                decomposition: CartesianDecomposition) -> Dict[int, np.ndarray]:
        """Per-rank padded local arrays with physical ghost planes filled.

        Each local array is the rank's owned box padded by ``halo`` ghost
        planes on every side.  Ghost *faces* that overlap the global domain
        (rank-rank interfaces, before the first halo exchange replaces them)
        are filled with the bordering global data; faces beyond the global
        boundary stay zero, matching the fixed zero-flux treatment of the
        reference kernels.  Corner/edge ghosts stay zero — an orthogonal
        stencil never reads them.
        """
        h = self.halo
        global_shape = decomposition.global_shape
        locals_by_rank: Dict[int, np.ndarray] = {}
        for rank in range(self.num_ranks):
            bounds = decomposition.local_bounds(rank)
            interior_shape = tuple(ub - lb for lb, ub in bounds)
            padded = tuple(extent + 2 * h for extent in interior_shape)
            local = np.zeros(padded, dtype=global_field.dtype, order="F")
            interior = tuple(slice(h, h + extent) for extent in interior_shape)
            owned = tuple(slice(lb, ub) for lb, ub in bounds)
            local[interior] = global_field[owned]
            if h:
                for dim, (lb, ub) in enumerate(bounds):
                    face = list(interior)
                    source = list(owned)
                    if lb >= h:
                        face[dim] = slice(0, h)
                        source[dim] = slice(lb - h, lb)
                        local[tuple(face)] = global_field[tuple(source)]
                    if ub + h <= global_shape[dim]:
                        face[dim] = slice(h + interior_shape[dim], None)
                        source[dim] = slice(ub, ub + h)
                        local[tuple(face)] = global_field[tuple(source)]
            locals_by_rank[rank] = local
        return locals_by_rank

    def gather(self, locals_by_rank: Dict[int, np.ndarray],
               decomposition: CartesianDecomposition,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Assemble the owned interiors, which tile it, into one global array."""
        h = self.halo
        if out is None:
            sample = locals_by_rank[0]
            out = np.empty(decomposition.global_shape, dtype=sample.dtype,
                           order="F")
        for rank in range(self.num_ranks):
            bounds = decomposition.local_bounds(rank)
            interior = tuple(slice(h, h + (ub - lb)) for lb, ub in bounds)
            owned = tuple(slice(lb, ub) for lb, ub in bounds)
            out[owned] = locals_by_rank[rank][interior]
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, global_field: np.ndarray,
            make_interpreter: InterpreterFactory, entry: str,
            iterations: int = 1,
            resilience: Optional[ResilienceOptions] = None,
            ) -> DistributedRunResult:
        """One distributed run: scatter, execute, exchange halos, gather.

        ``entry`` is called ``iterations`` times per rank on that rank's
        local array; the compiled module performs its own halo exchanges
        (the DMP lowering inserts them before every stencil snapshot).  The
        input field is never mutated; the gathered result comes back on the
        :class:`DistributedRunResult`.

        The run is a sequence of *waves*.  A wave dispatches every rank once
        to run one iteration from the checkpoint taken before it when the
        ``resilience`` policy (``None`` is :data:`FAIL_FAST`) allows a
        restart, and all of them otherwise, because a checkpoint that can
        never be restored is dead work and is not taken.  Rank tasks catch
        their own outcome instead of raising — tasks mutate
        ``locals_by_rank`` in place, so every task of the wave must finish
        before a rollback may restore those arrays.  A rank that fails for
        any reason aborts the communicator (waking every peer blocked in a
        receive); an injected crash then retires the generation's
        communicator and interpreters with their statistics carried over
        and restarts a fresh generation from the wave's checkpoint (bounded
        by ``max_restarts``), any other failure is re-raised.  Rolling back
        is consistent because at a wave boundary every rank has finished the
        same iterations: nothing in flight belongs to a later one, so
        discarding the communicator there loses no live message.  Within a
        wave per-channel FIFO and sequence numbers keep a fast rank's next
        halo behind the one its neighbour still has to consume, so the
        policy never changes the computed bits.
        """
        if (not isinstance(iterations, int) or isinstance(iterations, bool)
                or iterations < 1):
            raise MPIError(
                f"iterations must be an integer >= 1, got {iterations!r}")
        policy = FAIL_FAST if resilience is None else resilience
        started = time.perf_counter()
        report = RecoveryReport()
        injector = FaultInjector(
            FaultPlan() if policy.plan is None else policy.plan, report)
        global_field = np.asfortranarray(global_field)
        decomposition = self.decomposition_for(global_field.shape)
        locals_by_rank = self.scatter(global_field, decomposition)
        ranks = list(range(self.num_ranks))
        carried = {
            r: RankStats(rank=r,
                         bounds=tuple(decomposition.local_bounds(r)),
                         local_shape=tuple(locals_by_rank[r].shape))
            for r in ranks
        }

        # A plan that perturbs no message installs no hook, so an honest wait
        # is never counted as a recovery round.
        send_hook = injector.on_send if injector.plan.comm_faults else None

        def new_generation():
            comm = SimulatedCommunicator(self.num_ranks, timeout=self.timeout,
                                         fault_hook=send_hook)
            interps = {
                r: make_interpreter(r, locals_by_rank[r].shape, comm,
                                    decomposition)
                for r in ranks
            }
            return comm, interps

        def retire_generation():
            # Fold the generation's accounting into the run's so respawns
            # never lose measured traffic.
            report.add_counters(comm.stats)
            for r in ranks:
                interp = interps[r]
                carried[r].messages += int(interp.stats["mpi_messages"])
                carried[r].bytes += int(interp.stats["mpi_bytes"])
                carried[r].halo_seconds += float(interp.stats["halo_seconds"])
                if interp.kernels is not None:
                    per_kernel = interp.kernels.stats.get("per_kernel", {})
                    carried[r].kernel_seconds += sum(
                        s["seconds"] for s in per_kernel.values())

        def run_rank(rank: int) -> None:
            rank_started = time.perf_counter()
            try:
                for i in range(iteration, wave_end):
                    if injector.should_crash(rank, i):
                        raise InjectedFault(
                            f"rank {rank} crashed at iteration {i}")
                    interps[rank].call(entry, locals_by_rank[rank])
            except BaseException as exc:  # noqa: BLE001 — triaged by the dispatcher
                # Peers blocked on this rank's halo unwind with MPIAbort
                # now instead of waiting out their receive timeout.
                comm.abort(f"rank {rank} failed: {exc}")
                failures[rank] = exc
            finally:
                carried[rank].total_seconds += (
                    time.perf_counter() - rank_started)

        restartable = policy.max_restarts > 0
        comm, interps = new_generation()
        checkpoint: Optional[Dict[int, np.ndarray]] = None
        iteration = 0
        while iteration < iterations:
            wave_end = iterations
            if restartable:
                wave_end = iteration + 1
                if checkpoint is None:
                    checkpoint = {r: locals_by_rank[r].copy(order="F")
                                  for r in ranks}
                    report.bump("checkpoint_saves")
            failures: Dict[int, BaseException] = {}
            _run_all_at_once(run_rank, ranks)
            if not failures:
                iteration = wave_end
                checkpoint = None
                continue
            retire_generation()
            outcomes = [failures[r] for r in sorted(failures)]
            for exc in outcomes:
                if not isinstance(exc, (MPIAbort, InjectedFault)):
                    raise exc
            crashes = [exc for exc in outcomes
                       if isinstance(exc, InjectedFault)]
            report.bump("crashes_detected", len(crashes))
            if report.checkpoint_restores >= policy.max_restarts:
                raise MPIError(
                    f"distributed run gave up after "
                    f"{report.checkpoint_restores} restarts "
                    f"(max_restarts={policy.max_restarts}); last "
                    f"crash: {crashes[-1]}")
            for r in ranks:
                np.copyto(locals_by_rank[r], checkpoint[r])
            comm, interps = new_generation()
            report.bump("checkpoint_restores")
            report.bump("rank_respawns", self.num_ranks)
        retire_generation()
        gathered = self.gather(locals_by_rank, decomposition)
        return DistributedRunResult(
            field=gathered,
            grid=self.grid,
            ranks=self.num_ranks,
            iterations=iterations,
            rank_stats=[carried[r] for r in ranks],
            seconds=time.perf_counter() - started,
            recovery=report,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DistributedExecutor grid={self.grid} ranks={self.num_ranks}>"


__all__ = [
    "DistributedExecutor",
    "DistributedRunResult",
    "RankStats",
    "InterpreterFactory",
]
