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
they must **all** be runnable at once: each run opens its own executor of
one worker per rank and shuts it down when the run ends.  Only a sweep's
boxes, which never wait, run on the shared tile pools of
:func:`repro.runtime.parallel_executor.get_executor`; concurrent runs share
no rank thread and never wait for each other.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RecoveryReport,
    ReportSink,
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
    #: Communicator-wide totals (every halo message of every rank).
    messages: int = 0
    bytes: int = 0
    #: Wall-clock of the whole scatter→ranks→gather run.
    seconds: float = 0.0
    #: Checkpoint rollbacks performed.
    restarts: int = 0
    #: Recovery accounting of the run (all-zero when nothing went wrong).
    recovery: RecoveryReport = field(default_factory=RecoveryReport)

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

class DistributedExecutor:
    """Orchestrates scatter → per-rank execution → halo exchange → gather.

    ``grid`` is the Cartesian process grid the leading dimensions of the
    global field are decomposed over (``(2, 2)`` → four ranks, dimensions 0
    and 1 split in two).  ``halo`` is the ghost-plane width every local
    array is padded with on *every* dimension (the stencil's widest access
    offset).  Every rank runs on its own worker of the run's executor,
    because a rank blocked in a halo receive must not starve the neighbour
    whose send it waits for.
    ``timeout`` bounds every blocking receive so a genuinely
    deadlocked configuration fails with the communicator's pending-message
    diagnostic instead of hanging.
    """

    def __init__(self, grid: Sequence[int], *, halo: int = 1,
                 timeout: float = 30.0):
        self.grid = tuple(int(g) for g in grid)
        if not self.grid or any(g < 1 for g in self.grid):
            raise MPIError(f"process grid must be positive, got {self.grid}")
        if halo < 0:
            raise MPIError(f"halo width must be >= 0, got {halo}")
        self.halo = int(halo)
        self.num_ranks = 1
        for extent in self.grid:
            self.num_ranks *= extent
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
        sink = ReportSink()
        injector = FaultInjector(
            FaultPlan() if policy.plan is None else policy.plan, sink)
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
        total_messages = 0
        total_bytes = 0
        restarts = 0

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
            # Fold the generation's communication accounting into the run
            # totals so respawns never lose measured traffic.
            nonlocal total_messages, total_bytes
            total_messages += comm.message_count
            total_bytes += int(comm.bytes_sent)
            sink.add_counters(comm.stats)
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
        # One worker per rank, for every wave of this run (restarts too).
        with ThreadPoolExecutor(max_workers=self.num_ranks,
                                thread_name_prefix="repro-rank") as pool:
            while iteration < iterations:
                wave_end = iterations
                if restartable:
                    wave_end = iteration + 1
                    if checkpoint is None:
                        checkpoint = {r: locals_by_rank[r].copy(order="F")
                                      for r in ranks}
                        sink.bump("checkpoint_saves")
                failures: Dict[int, BaseException] = {}
                list(pool.map(run_rank, ranks))
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
                sink.bump("crashes_detected", len(crashes))
                if restarts >= policy.max_restarts:
                    raise MPIError(
                        f"distributed run gave up after {restarts} restarts "
                        f"(max_restarts={policy.max_restarts}); last "
                        f"crash: {crashes[-1]}")
                restarts += 1
                for r in ranks:
                    np.copyto(locals_by_rank[r], checkpoint[r])
                comm, interps = new_generation()
                sink.bump("checkpoint_restores")
                sink.bump("rank_respawns", self.num_ranks)
                sink.record_event(
                    f"rolled back to iteration {iteration} "
                    f"(restart {restarts})")
        retire_generation()
        gathered = self.gather(locals_by_rank, decomposition)
        return DistributedRunResult(
            field=gathered,
            grid=self.grid,
            ranks=self.num_ranks,
            iterations=iterations,
            rank_stats=[carried[r] for r in ranks],
            messages=total_messages,
            bytes=total_bytes,
            seconds=time.perf_counter() - started,
            restarts=restarts,
            recovery=sink.report,
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DistributedExecutor grid={self.grid} ranks={self.num_ranks}>"


__all__ = [
    "DistributedExecutor",
    "DistributedRunResult",
    "RankStats",
    "InterpreterFactory",
]
