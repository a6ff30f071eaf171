"""The compile/run front door: many clients, one compile per artifact.

:class:`CompileService` turns a :class:`repro.api.Session` (optionally backed
by an :class:`ArtifactStore`) into a bounded concurrent service:

* **Single-flight coalescing.**  Duplicate in-flight compiles of the same
  ``(source fingerprint, backend, frozen options)`` key collapse onto one
  *flight*: the first arrival claims the flight and performs the lower, every
  other request blocks on the winner's future and shares its outcome — result
  or exception, so a quarantined compile poisons the whole cohort exactly
  once instead of retry-storming the backend.
* **Backpressure.**  Admission is bounded: at most ``max_queue`` accepted
  requests wait for one of the ``workers`` threads at a time; beyond that
  :meth:`submit_compile`/:meth:`submit_run` raise a typed
  :class:`ServiceRejected` immediately (and resolve any already-coalesced
  waiters with the same rejection) instead of buffering unboundedly.
* **Per-request timeouts.**  The blocking :meth:`compile`/:meth:`run`
  wrappers raise :class:`ServiceTimeout` after ``timeout`` seconds; the
  underlying work keeps running and lands in the caches for the next request.
* **Metrics.**  :meth:`metrics` snapshots a :class:`ServiceMetrics`: request
  counters, coalesced/rejected/timeout counts, queue-depth high-water mark,
  session memory/disk/miss counters and per-stage latency percentiles —
  rendered by :func:`repro.harness.service_metrics_table`.

Deadlock-freedom of the flight protocol: a flight's winner is always a
thread that is *running* (never a request still waiting for a worker).  A
started request that finds its key already claimed simply waits on the
winner's future; a started request that finds the flight unclaimed claims it
and computes inline.  Claiming is first-come-first-served across compile and
run tasks, so no worker ever waits on work that only it could start.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..api.options import BackendOptions, OptionError, validate_timeout
from ..api.program import CompiledProgram, source_fingerprint
from ..api.session import Session
from .store import ArtifactStore

#: Samples kept per latency stage for the percentile snapshot.
_LATENCY_WINDOW = 4096


class ServiceRejected(RuntimeError):
    """The admission queue is full; the request was not accepted.

    Typed so clients can distinguish backpressure (retry later, shed load)
    from a failed compile (do not retry — see session quarantine).
    """

    def __init__(self, depth: int, max_queue: int):
        super().__init__(
            f"service admission queue is full ({depth}/{max_queue} requests "
            f"queued); retry later or raise max_queue"
        )
        self.depth = depth
        self.max_queue = max_queue


class ServiceTimeout(TimeoutError):
    """A blocking request exceeded its per-request timeout.

    The underlying flight keeps running: its artifact still lands in the
    session/store caches, so a retry is typically a fast hit.
    """


def _percentiles(samples: Sequence[float]) -> Dict[str, float]:
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    n = len(ordered)

    def pick(q: float) -> float:
        return ordered[min(n - 1, int(round(q * (n - 1))))]

    return {
        "count": n,
        "p50": pick(0.50),
        "p90": pick(0.90),
        "p99": pick(0.99),
        "max": ordered[-1],
    }


@dataclass(frozen=True)
class ServiceMetrics:
    """A point-in-time snapshot of one :class:`CompileService`.

    ``misses`` is the count of true backend lowers the session performed —
    the acceptance number for single-flight (one per distinct key, fleet
    wide); ``memory_hits``/``disk_hits`` split cache reuse by layer.
    ``latency`` maps stage name (``queue_wait``, ``lower``, ``execute``) to
    ``{count, p50, p90, p99, max}`` in seconds.
    """

    submitted_compiles: int
    submitted_runs: int
    completed: int
    failed: int
    coalesced: int
    rejected: int
    timeouts: int
    flights_claimed: int
    queue_depth_high_water: int
    memory_hits: int
    disk_hits: int
    misses: int
    artifacts: int
    store: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "submitted_compiles": self.submitted_compiles,
            "submitted_runs": self.submitted_runs,
            "completed": self.completed,
            "failed": self.failed,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "flights_claimed": self.flights_claimed,
            "queue_depth_high_water": self.queue_depth_high_water,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "artifacts": self.artifacts,
            "store": dict(self.store),
            "latency": {k: dict(v) for k, v in self.latency.items()},
        }


class _Flight:
    """One in-flight compile key: a future plus a claimed flag."""

    __slots__ = ("future", "claimed")

    def __init__(self):
        self.future: Future = Future()
        self.claimed = False


class CompileService:
    """A concurrent compile/run server over one session and its store."""

    def __init__(self, session: Optional[Session] = None, *,
                 store: Optional[ArtifactStore] = None,
                 workers: int = 4, max_queue: int = 64):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue!r}")
        if session is None:
            session = Session(store=store)
        elif store is not None:
            if session.store is not None and session.store is not store:
                raise ValueError(
                    "session already has a different store attached"
                )
            session.store = store
        self.session = session
        self.max_queue = max_queue
        self._lock = threading.Lock()
        #: Accepted requests no worker has started yet (guarded by _lock).
        self._waiting = 0
        self._inflight: Dict[Tuple, _Flight] = {}
        self._counters = {
            "submitted_compiles": 0,
            "submitted_runs": 0,
            "completed": 0,
            "failed": 0,
            "coalesced": 0,
            "rejected": 0,
            "timeouts": 0,
            "flights_claimed": 0,
            "queue_depth_high_water": 0,
        }
        self._latency: Dict[str, deque] = {
            "queue_wait": deque(maxlen=_LATENCY_WINDOW),
            "lower": deque(maxlen=_LATENCY_WINDOW),
            "execute": deque(maxlen=_LATENCY_WINDOW),
        }
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="compile-service")

    # -- request admission -----------------------------------------------------

    def _resolve(self, source, backend, options: Optional[BackendOptions],
                 overrides: Dict) -> Tuple[str, object, BackendOptions, Tuple]:
        source = getattr(source, "source", source)
        backend_obj = self.session.registry.get(backend)
        opts = backend_obj.make_options(options, **overrides)
        key = (source_fingerprint(source), backend_obj.name, opts.cache_key())
        return source, backend_obj, opts, key

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._counters[counter] += by

    def _settle(self, future: Future, work: Callable[[], object]) -> None:
        """Count ``work()``'s outcome; resolve ``future`` with it if pending."""
        try:
            result = work()
        except BaseException as exc:
            self._bump("failed")
            if not future.done():
                future.set_exception(exc)
            return
        self._bump("completed")
        if not future.done():
            future.set_result(result)

    def _admit(self, future: Future, work: Callable[[], object]) -> None:
        """Hand ``work`` to a worker, which settles ``future`` with it, or
        raise :class:`ServiceRejected` (typed)."""
        enqueued_at = time.perf_counter()

        def start() -> None:
            with self._lock:
                self._waiting -= 1
                self._latency["queue_wait"].append(
                    time.perf_counter() - enqueued_at)
            self._settle(future, work)

        with self._lock:
            if self._closed:
                raise RuntimeError("CompileService is closed")
            if self._waiting >= self.max_queue:
                self._counters["rejected"] += 1
                raise ServiceRejected(self._waiting, self.max_queue)
            self._waiting += 1
            if self._waiting > self._counters["queue_depth_high_water"]:
                self._counters["queue_depth_high_water"] = self._waiting
            self._executor.submit(start)

    def submit_compile(self, source, backend="cpu",
                       options: Optional[BackendOptions] = None,
                       **overrides) -> Future:
        """Admit a compile; returns a future resolving to the
        :class:`CompiledProgram`.

        Duplicate in-flight keys coalesce onto the existing flight's future
        without consuming queue capacity; keys already in the session memory
        cache resolve inline without touching the queue at all.
        """
        if self._closed:
            raise RuntimeError("CompileService is closed")
        source, backend_obj, opts, key = self._resolve(
            source, backend, options, overrides)
        self._bump("submitted_compiles")
        with self._lock:
            flight = self._inflight.get(key)
            if flight is not None:
                self._counters["coalesced"] += 1
                return flight.future
        # Hot path: the session already holds the artifact — resolve inline
        # (a memory hit) instead of burning queue capacity.
        if self.session.cached_key(key):
            future: Future = Future()
            self._settle(future, lambda: self.session.lower(
                source, backend_obj, opts))
            return future
        with self._lock:
            flight = self._inflight.get(key)
            if flight is not None:
                self._counters["coalesced"] += 1
                return flight.future
            flight = _Flight()
            self._inflight[key] = flight
        try:
            # The flight future doubles as the request future; the claimer
            # resolves it inside _lower_single_flight.
            self._admit(flight.future, lambda: self._lower_single_flight(
                key, source, backend_obj, opts))
        except RuntimeError as refusal:  # ServiceRejected, or closed
            # Resolve the flight with the refusal so any waiter that
            # coalesced between registration and this failure unblocks with
            # the same error, then retract it.
            with self._lock:
                self._inflight.pop(key, None)
            flight.future.set_exception(refusal)
            raise
        return flight.future

    def submit_run(self, source, entry: str, args: Sequence = (), *,
                   backend="cpu", options: Optional[BackendOptions] = None,
                   **overrides) -> Future:
        """Admit compile-if-needed + execute; the future resolves to the
        :class:`repro.runtime.Interpreter` that ran ``entry`` (arrays in
        ``args`` are mutated in place per Fortran semantics).

        The compile half shares the single-flight protocol with
        :meth:`submit_compile`; the execute half always runs (runs are never
        coalesced — every client gets its own execution).
        """
        if self._closed:
            raise RuntimeError("CompileService is closed")
        if not isinstance(args, (list, tuple)):
            raise OptionError(
                f"args must be a list or tuple of the arguments of "
                f"'{entry}', got {type(args).__name__}")
        source, backend_obj, opts, key = self._resolve(
            source, backend, options, overrides)
        self._bump("submitted_runs")

        def run():
            compiled = self._lower_single_flight(key, source, backend_obj,
                                                 opts)
            if compiled.options != opts:
                # Coalesced onto a flight whose runtime-only options differ
                # (the key ignores them): this request runs with its own.
                compiled = compiled.with_options(
                    execution_mode=opts.execution_mode, threads=opts.threads)
            started = time.perf_counter()
            interp = compiled.run(entry, *args)
            with self._lock:
                self._latency["execute"].append(time.perf_counter() - started)
            return interp

        future: Future = Future()
        self._admit(future, run)
        return future

    # -- blocking convenience --------------------------------------------------

    def _await(self, future: Future, timeout: Optional[float]):
        try:
            return future.result(timeout)
        except _FutureTimeout:
            self._bump("timeouts")
            raise ServiceTimeout(
                f"request did not complete within {timeout}s (the flight "
                f"keeps running; a retry will reuse its artifact)"
            ) from None

    def compile(self, source, backend="cpu",
                options: Optional[BackendOptions] = None,
                timeout: Optional[float] = None,
                **overrides) -> CompiledProgram:
        """Blocking compile with per-request ``timeout`` (``None``: no
        deadline), checked before the request is admitted."""
        if timeout is not None:
            validate_timeout(timeout, "a CompileService request")
        future = self.submit_compile(source, backend, options, **overrides)
        return self._await(future, timeout)

    def run(self, source, entry: str, args: Sequence = (), *,
            backend="cpu", options: Optional[BackendOptions] = None,
            timeout: Optional[float] = None, **overrides):
        """Blocking compile-if-needed + execute with per-request
        ``timeout``; returns the interpreter for stats access."""
        if timeout is not None:
            validate_timeout(timeout, "a CompileService request")
        future = self.submit_run(
            source, entry, args, backend=backend, options=options,
            **overrides)
        return self._await(future, timeout)

    # -- execution -------------------------------------------------------------

    def _lower_single_flight(self, key: Tuple, source: str, backend,
                             options: BackendOptions) -> CompiledProgram:
        """Compile ``key`` exactly once fleet-wide.

        The claimer computes inline; everybody else blocks on the winner's
        future and shares its outcome (including a quarantine exception).
        """
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight()
                self._inflight[key] = flight
            claimer = not flight.claimed
            if claimer:
                flight.claimed = True
                self._counters["flights_claimed"] += 1
            else:
                self._counters["coalesced"] += 1
        if not claimer:
            return flight.future.result()
        started = time.perf_counter()
        try:
            compiled = self.session.lower(source, backend, options)
        except BaseException as exc:
            with self._lock:
                self._inflight.pop(key, None)
            flight.future.set_exception(exc)
            raise
        with self._lock:
            self._latency["lower"].append(time.perf_counter() - started)
            self._inflight.pop(key, None)
        flight.future.set_result(compiled)
        return compiled

    # -- introspection / lifecycle ---------------------------------------------

    def metrics(self) -> ServiceMetrics:
        """A consistent snapshot of service + session + store counters."""
        cache = self.session.cache_stats
        store = self.session.store
        with self._lock:
            counters = dict(self._counters)
            latency = {
                stage: _percentiles(list(samples))
                for stage, samples in self._latency.items()
            }
        return ServiceMetrics(
            submitted_compiles=counters["submitted_compiles"],
            submitted_runs=counters["submitted_runs"],
            completed=counters["completed"],
            failed=counters["failed"],
            coalesced=counters["coalesced"],
            rejected=counters["rejected"],
            timeouts=counters["timeouts"],
            flights_claimed=counters["flights_claimed"],
            queue_depth_high_water=counters["queue_depth_high_water"],
            memory_hits=cache["hits"],
            disk_hits=cache.get("disk_hits", 0),
            misses=cache["misses"],
            artifacts=cache["artifacts"],
            store=store.stats if store is not None else {},
            latency=latency,
        )

    def close(self) -> None:
        """Stop accepting requests, finish the accepted ones and join the
        worker threads."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompileService max_queue={self.max_queue} "
            f"depth={self._waiting}>"
        )


__all__ = [
    "ServiceRejected",
    "ServiceTimeout",
    "ServiceMetrics",
    "CompileService",
]
