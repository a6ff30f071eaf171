"""Sessions: compiled-artifact caching and batch execution.

A :class:`Session` is the stateful half of the fluent API.  It memoizes
:class:`repro.api.CompiledArtifact` objects by ``(source hash, backend name,
frozen compile-time options)`` so harness sweeps, ablations and serving
workloads that compile the same source repeatedly stop re-running
discovery/extraction from scratch — and it offers :meth:`run_batch`, which
fans independent argument sets of one compiled program out over a thread
pool that lives as long as the call.

Runtime-only options (``execution_mode``, ``threads``) are excluded from the
cache key, so ``compiled.vectorize(threads=4)`` is a cache *hit* on the
artifact compiled by ``program.lower(...)``.

With an :class:`repro.serve.ArtifactStore` attached (``Session(store=...)``),
the memo dict gains a second, on-disk layer shared *across processes*: a
memory miss consults the store before lowering (a ``disk_hit``), and every
fresh compile is persisted for the next process.  ``misses`` then counts true
backend lowers only.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from types import TracebackType
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir.context import default_context
from ..resilience import InjectedFault
from ..runtime.sweep import usable_cpus
from .artifact import CompiledArtifact
from .backends import Backend, BackendRegistry, registry as default_registry
from .options import BackendOptions, require_count
from .program import CompiledProgram, Program, source_fingerprint

#: How many times a failing compile is retried before its cache key is
#: quarantined: one retry recovers a transient failure, a second failure is
#: final.
COMPILE_RETRIES = 1


class Session:
    """Compiles programs and memoizes the compiled artifacts.

    ``session.compile(source)`` returns a :class:`Program` bound to this
    session; every ``program.lower(...)`` (and every runtime derivation of a
    compiled handle) goes through :meth:`lower`, which consults the cache
    before invoking the backend.  ``cache_stats`` exposes measured hit/miss
    counters.
    """

    def __init__(self, registry: Optional[BackendRegistry] = None,
                 store=None):
        self.registry = registry if registry is not None else default_registry
        self._ctx = default_context()
        self._cache: Dict[Tuple, CompiledArtifact] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        #: Optional :class:`repro.serve.ArtifactStore`: a shared on-disk
        #: cache layer consulted on memory misses and written on compiles.
        self.store = store
        self._disk_hits = 0
        self._disk_misses = 0
        #: Deterministic fault injection: called before every backend
        #: compile; returning True simulates a transient compiler crash
        #: (see :class:`repro.resilience.FaultInjector`).
        self.compile_hook = None
        #: Poisoned-artifact records: cache key -> the exception that
        #: exhausted its retries and its traceback from the compile.
        #: Further lowers of the key re-raise it immediately instead of
        #: retry-storming the backend.
        self._quarantined: Dict[
            Tuple, Tuple[BaseException, Optional[TracebackType]]] = {}
        self._compile_retry_count = 0
        self._quarantine_hits = 0

    # -- compilation ---------------------------------------------------------

    def compile(self, source: str) -> Program:
        """Wrap ``source`` in a :class:`Program` bound to this session."""
        return Program(source, self)

    def lower(self, source, backend="cpu",
              options: Optional[BackendOptions] = None,
              **overrides) -> CompiledProgram:
        """Compile ``source`` for ``backend``, reusing cached artifacts.

        ``backend`` may be a registered name or a :class:`Backend` object;
        keyword ``overrides`` refine the
        backend's option schema and are validated against it.
        """
        source, backend_obj, opts, key = self.resolve(
            source, backend, options, **overrides)
        artifact = self._artifact_for(key, source, backend_obj, opts)
        return CompiledProgram(self, source, backend_obj, opts, artifact)

    def resolve(self, source, backend="cpu",
                options: Optional[BackendOptions] = None, **overrides
                ) -> Tuple[str, Backend, BackendOptions, Tuple]:
        """A request's ``(source text, backend, validated options, cache
        key)``; the key ignores the runtime-only options."""
        source = getattr(source, "source", source)
        backend_obj = self.registry.get(backend)
        opts = backend_obj.make_options(options, **overrides)
        key = (source_fingerprint(source), backend_obj.name, opts.cache_key())
        return source, backend_obj, opts, key

    def _artifact_for(self, key: Tuple, source: str, backend: Backend,
                      options: BackendOptions) -> CompiledArtifact:
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                return cached
            poisoned = self._quarantined.get(key)
            if poisoned is not None:
                # A quarantined key failed its compile *and* its retry: re-
                # raise the original exception (same object, same type) so a
                # bad source cannot retry-storm the backend.  Each raise
                # starts again from the compile's traceback: one that grew
                # on every hit would keep every frame it passed alive.
                self._quarantine_hits += 1
                exc, compile_tb = poisoned
                raise exc.with_traceback(compile_tb)
        if self.store is not None:
            # Second cache layer: another process may already have lowered
            # this key.  Store failures (corruption, truncation, version
            # mismatch) surface as None — a safe miss, never an exception.
            loaded = self.store.load(key, source=source, backend=backend.name,
                                     options=options)
            if loaded is not None:
                with self._lock:
                    self._disk_hits += 1
                    return self._cache.setdefault(key, loaded)
            with self._lock:
                self._disk_misses += 1
        with self._lock:
            # Re-check under the lock: another thread may have compiled (or
            # disk-loaded) the key while we were reading the store.
            cached = self._cache.get(key)
            if cached is not None:
                self._hits += 1
                return cached
            self._misses += 1
        attempt = 0
        while True:
            try:
                if self.compile_hook is not None and self.compile_hook():
                    raise InjectedFault(
                        f"injected transient compile failure for source "
                        f"{key[0][:12]} on backend '{backend.name}'"
                    )
                artifact = backend.lower(source, options, ctx=self._ctx)
                break
            except BaseException as exc:
                attempt += 1
                if attempt > COMPILE_RETRIES:
                    with self._lock:
                        self._quarantined[key] = (exc, exc.__traceback__)
                    raise
                with self._lock:
                    self._compile_retry_count += 1
        if self.store is not None:
            # Best-effort persist for the next process; save() never raises.
            self.store.save(key, artifact)
        with self._lock:
            # Two threads may race to compile the same key; the artifacts are
            # equivalent, keep the first and let the loser's result drop.
            return self._cache.setdefault(key, artifact)

    # -- cache management ----------------------------------------------------

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Measured cache counters: ``hits``, ``misses``, ``artifacts``.

        With a store attached, ``disk_hits``/``disk_misses`` count the
        on-disk layer separately and ``misses`` counts true backend lowers
        only (a disk hit is not a miss).
        """
        with self._lock:
            stats = {
                "hits": self._hits,
                "misses": self._misses,
                "artifacts": len(self._cache),
            }
            if self.store is not None:
                stats["disk_hits"] = self._disk_hits
                stats["disk_misses"] = self._disk_misses
            return stats

    def cached_key(self, key: Tuple) -> bool:
        """Whether ``key`` is already in the in-memory artifact cache (used
        by :class:`repro.serve.CompileService` for its no-queue hot path)."""
        with self._lock:
            return key in self._cache

    @property
    def resilience_stats(self) -> Dict[str, int]:
        """Compile-recovery counters: ``compile_retries`` (transient
        failures recovered by retrying), ``compiles_quarantined`` (keys whose
        retries were exhausted) and ``quarantine_hits`` (lowers short-
        circuited by a poisoned record)."""
        with self._lock:
            return {
                "compile_retries": self._compile_retry_count,
                "compiles_quarantined": len(self._quarantined),
                "quarantine_hits": self._quarantine_hits,
            }

    def quarantined_record(self, source, backend="cpu",
                           options: Optional[BackendOptions] = None,
                           **overrides) -> Optional[BaseException]:
        """The poisoned-artifact record for a (source, backend, options)
        triple, or None if the key is healthy."""
        key = self.resolve(source, backend, options, **overrides)[3]
        with self._lock:
            exc, _ = self._quarantined.get(key, (None, None))
            return exc

    def clear_cache(self, keep_quarantine: bool = False) -> None:
        """Drop every cached artifact and reset the cache counters.

        By default the quarantine records (and their counters) go too.  Pass
        ``keep_quarantine=True`` to drop artifacts while leaving known-bad
        sources poisoned — operators reclaiming memory must not un-poison a
        source whose compiles are known to fail.
        """
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
            self._disk_hits = 0
            self._disk_misses = 0
            if not keep_quarantine:
                self._quarantined.clear()
                self._compile_retry_count = 0
                self._quarantine_hits = 0

    # -- batch execution -----------------------------------------------------

    def run_batch(self, compiled: CompiledProgram, entry: str,
                  arg_sets: Sequence[Sequence],
                  workers: Optional[int] = None) -> List[List[object]]:
        """Run ``entry`` once per argument set, concurrently.

        Each argument set gets its own interpreter over the shared compiled
        modules (interpreters never mutate them), on a pool the call opens
        and joins, so no item outlives it.  Results come back **in input
        order** and arrays are mutated in place per Fortran by-reference
        semantics, so each argument set should own its arrays.  ``workers``
        defaults to one per argument set, at most one per CPU the process may
        use now (:func:`usable_cpus`); one runs them on the calling thread.
        """
        if workers is not None:
            require_count("workers", workers)
        arg_sets = list(arg_sets)
        if not arg_sets:
            return []

        def run_one(args: Sequence) -> List[object]:
            return compiled.interpreter().call(entry, *args)

        if workers is None:
            workers = min(len(arg_sets), usable_cpus())
        if workers == 1 or len(arg_sets) == 1:
            return [run_one(args) for args in arg_sets]
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="repro-batch") as pool:
            return list(pool.map(run_one, arg_sets))

    def __repr__(self) -> str:  # pragma: no cover
        stats = self.cache_stats
        return (
            f"<Session artifacts={stats['artifacts']} "
            f"hits={stats['hits']} misses={stats['misses']}>"
        )


_default_session = Session()


def default_session() -> Session:
    """The process-wide session behind :func:`repro.compile`."""
    return _default_session


__all__ = ["Session", "default_session"]
