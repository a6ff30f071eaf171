"""The compile/run front door: many clients, one compile per artifact.

:class:`CompileService` turns a :class:`repro.api.Session` (optionally backed
by an :class:`ArtifactStore`) into a bounded concurrent service:

* **Coalescing.**  The session lowers each ``(source fingerprint, backend,
  frozen options)`` key once: a request that reaches it while another lowers
  the key waits and shares that outcome — artifact or exception, so a
  quarantined compile poisons the whole cohort exactly once instead of
  retry-storming the backend.  The service only deduplicates admitted
  compile requests: a duplicate :meth:`submit_compile` of a key already
  admitted gets that request's future and takes no queue slot.
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

No worker can wait on work that only it could start: a session flight
exists only while its owner's thread is lowering the key.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..api.options import BackendOptions, OptionError, require_count, validate_timeout
from ..api.program import CompiledProgram
from ..api.session import Request, Session
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

    The underlying request keeps running: its artifact still lands in the
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
    one per distinct key, fleet wide; ``memory_hits``/``disk_hits`` split
    cache reuse by layer.  ``coalesced`` adds the service's duplicate compile
    requests and the session's callers that waited for another's lower.
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
    queue_depth_high_water: int
    memory_hits: int
    disk_hits: int
    misses: int
    artifacts: int
    store: Dict[str, int] = field(default_factory=dict)
    latency: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return asdict(self)


class CompileService:
    """A concurrent compile/run server over one session and its store."""

    def __init__(self, session: Optional[Session] = None, *,
                 store: Optional[ArtifactStore] = None,
                 workers: int = 4, max_queue: int = 64):
        require_count("workers", workers)
        require_count("max_queue", max_queue)
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
        #: Admitted compile requests not yet settled, by cache key.
        self._inflight: Dict[Tuple, Future] = {}
        self._counters = {
            "submitted_compiles": 0,
            "submitted_runs": 0,
            "completed": 0,
            "failed": 0,
            "coalesced": 0,
            "rejected": 0,
            "timeouts": 0,
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

        Keys already in the session memory cache resolve inline without
        touching the queue at all; a duplicate of an admitted, unsettled
        request shares its future without consuming queue capacity.
        """
        if self._closed:
            raise RuntimeError("CompileService is closed")
        request = self.session.resolve(source, backend, options, **overrides)
        key = request.key
        self._bump("submitted_compiles")
        if self.session.cached_key(key):
            future: Future = Future()
            self._settle(future, lambda: self._lower(request))
            return future
        with self._lock:
            future = self._inflight.get(key)
            if future is not None:
                self._counters["coalesced"] += 1
                return future
            future = self._inflight[key] = Future()

        def retract(_: Future) -> None:
            with self._lock:
                del self._inflight[key]

        future.add_done_callback(retract)
        try:
            self._admit(future, lambda: self._lower(request))
        except RuntimeError as refusal:  # ServiceRejected, or closed
            # Duplicates that joined this request before the refusal share it.
            future.set_exception(refusal)
            raise
        return future

    def submit_run(self, source, entry: str, args: Sequence = (), *,
                   backend="cpu", options: Optional[BackendOptions] = None,
                   **overrides) -> Future:
        """Admit compile-if-needed + execute; the future resolves to the
        :class:`repro.runtime.Interpreter` that ran ``entry`` (arrays in
        ``args`` are mutated in place per Fortran semantics).

        The compile half is the session's, which lowers each key once; the
        execute half always runs (runs are never coalesced — every client
        gets its own execution, with its own runtime options).
        """
        if self._closed:
            raise RuntimeError("CompileService is closed")
        if not isinstance(args, (list, tuple)):
            raise OptionError(
                f"args must be a list or tuple of the arguments of "
                f"'{entry}', got {type(args).__name__}")
        request = self.session.resolve(source, backend, options, **overrides)
        self._bump("submitted_runs")

        def run():
            compiled = self._lower(request)
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
                f"request did not complete within {timeout}s (it keeps "
                f"running; a retry will reuse its artifact)"
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

    def _lower(self, request: Request) -> CompiledProgram:
        """``session.lower`` of the resolved ``request``, timed into the
        ``lower`` latency window."""
        started = time.perf_counter()
        compiled = self.session.lower(request)
        with self._lock:
            self._latency["lower"].append(time.perf_counter() - started)
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
            coalesced=counters["coalesced"] + cache["coalesced"],
            rejected=counters["rejected"],
            timeouts=counters["timeouts"],
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
