"""Sessions: compiled-artifact caching.

A :class:`Session` is the stateful half of the fluent API.  It memoizes
:class:`repro.api.CompiledArtifact` objects by ``(source hash, backend name,
frozen compile-time options)`` so harness sweeps, ablations and serving
workloads that compile the same source repeatedly stop re-running
discovery/extraction from scratch.

:meth:`Session.resolve` turns a request into a :class:`Request` (source text,
backend, validated options and cache key), the one value every layer passes
along: :meth:`Session.lower` lowers a ``Request`` as is, and the compiled
handle holds it; the shared artifact keeps none of it.

The session lowers each key once: the first caller that misses owns the key's
*flight* and lowers it, and every caller that arrives meanwhile waits for that
flight and shares its outcome, the artifact or the exception object
(``coalesced`` counts them).

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
from concurrent.futures import Future
from types import TracebackType
from typing import Dict, NamedTuple, Optional, Tuple

from ..resilience import InjectedFault
from .artifact import CompiledArtifact
from .backends import Backend, BackendRegistry, registry as default_registry
from .options import BackendOptions, OptionError
from .program import CompiledProgram, Program, source_fingerprint

#: How many times a failing compile is retried before its cache key is
#: quarantined: one retry recovers a transient failure, a second failure is
#: final.
COMPILE_RETRIES = 1


class Request(NamedTuple):
    """One compile request, resolved once: the source text, the backend, the
    validated options and the cache key (which ignores the runtime-only
    options)."""

    source: str
    backend: Backend
    options: BackendOptions
    key: Tuple


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
        self._cache: Dict[Tuple, CompiledArtifact] = {}
        #: Keys being read or lowered now -> the outcome their callers share.
        self._flights: Dict[Tuple, Future] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._coalesced = 0
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
        backend's option schema and are validated against it.  A
        :class:`Request` from :meth:`resolve` is lowered as it is.
        """
        if isinstance(source, Request):
            if options is not None or overrides:
                raise OptionError(
                    "a resolved Request carries its own options; resolve "
                    "the request again to change them")
            request = source
        else:
            request = self.resolve(source, backend, options, **overrides)
        return CompiledProgram(self, request, self._artifact_for(request))

    def resolve(self, source, backend="cpu",
                options: Optional[BackendOptions] = None,
                **overrides) -> Request:
        """The :class:`Request` naming this compile: ``backend`` looked up,
        ``options`` and ``overrides`` validated, the cache key computed."""
        source = getattr(source, "source", source)
        backend_obj = self.registry.get(backend)
        opts = backend_obj.make_options(options, **overrides)
        key = (source_fingerprint(source), backend_obj.name, opts.cache_key())
        return Request(source, backend_obj, opts, key)

    def _artifact_for(self, request: Request) -> CompiledArtifact:
        key = request.key
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
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = Future()
                owner = True
            else:
                self._coalesced += 1
                owner = False
        if not owner:
            # Another thread is lowering this key: share its outcome, the
            # artifact or the exception object, raised from the compile's
            # traceback like a quarantine hit.
            exc = flight.exception()
            if exc is None:
                return flight.result()
            with self._lock:
                _, compile_tb = self._quarantined.get(key, (exc, None))
            raise exc.with_traceback(compile_tb)
        try:
            artifact = self._load_or_lower(request)
        except BaseException as exc:
            with self._lock:
                del self._flights[key]
            flight.set_exception(exc)
            raise
        with self._lock:
            self._cache[key] = artifact
            del self._flights[key]
        flight.set_result(artifact)
        return artifact

    def _load_or_lower(self, request: Request) -> CompiledArtifact:
        """The artifact of a key missing from memory, read from the store or
        lowered by the backend; run by the key's flight owner only."""
        source, backend, options, key = request
        if self.store is not None:
            # Second cache layer: another process may already have lowered
            # this key.  Store failures (corruption, truncation, version
            # mismatch) surface as None — a safe miss, never an exception.
            loaded = self.store.load(key)
            with self._lock:
                if loaded is not None:
                    self._disk_hits += 1
                    return loaded
                self._disk_misses += 1
        with self._lock:
            self._misses += 1
        attempt = 0
        while True:
            try:
                if self.compile_hook is not None and self.compile_hook():
                    raise InjectedFault(
                        f"injected transient compile failure for source "
                        f"{key[0][:12]} on backend '{backend.name}'"
                    )
                artifact = backend.lower(source, options)
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
        return artifact

    # -- cache management ----------------------------------------------------

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Measured cache counters: ``hits``, ``misses``, ``coalesced``
        (callers that waited for another's lower of their key) and
        ``artifacts``.

        With a store attached, ``disk_hits``/``disk_misses`` count the
        on-disk layer separately and ``misses`` counts true backend lowers
        only (a disk hit is not a miss).
        """
        with self._lock:
            stats = {
                "hits": self._hits,
                "misses": self._misses,
                "coalesced": self._coalesced,
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
            self._coalesced = 0
            self._disk_hits = 0
            self._disk_misses = 0
            if not keep_quarantine:
                self._quarantined.clear()
                self._compile_retry_count = 0
                self._quarantine_hits = 0

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


__all__ = ["Request", "Session", "default_session"]
