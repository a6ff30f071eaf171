"""The fluent ``Program`` / ``CompiledProgram`` layer.

In the spirit of the Exo/SYS_ATL scheduling API, a compiled object is a
first-class immutable value you *derive* rather than mutate:

.. code-block:: python

    import repro

    program = repro.compile(fortran_source)
    compiled = (program.lower("openmp", lower_to_scf=True)
                       .vectorize(threads=4))
    compiled.run("pw_advection", u, v, w, su, sv, sw)

Every derivation (``lower``, ``vectorize``, ``with_threads``, ``retarget``,
...) returns a *new* handle; the underlying :class:`CompiledArtifact` comes
from the bound :class:`repro.api.Session`'s cache, so derivations that only
change runtime policy (execution mode, thread count) share the already
compiled modules instead of re-running discovery/extraction.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..runtime.interpreter import Interpreter
from .artifact import CompiledArtifact
from .backends import Backend
from .options import (BackendOptions, OptionError, validate_execution_mode,
                      validate_threads)

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session


def source_fingerprint(source: str) -> str:
    """Stable identity of one Fortran source (artifact-cache key component)."""
    if not isinstance(source, str):
        raise OptionError(
            f"source must be Fortran source text, got {type(source).__name__}")
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def build_interpreter(
    backend: Backend,
    options: BackendOptions,
    modules,
    gpu=None,
    comm=None,
    rank: int = 0,
    decomposition=None,
    execution_mode: Optional[str] = None,
    threads: Optional[int] = None,
) -> Interpreter:
    """Construct an interpreter over compiled ``modules`` for ``backend``.

    The implementation behind :meth:`CompiledProgram.interpreter`: overrides
    are validated at override time (``None`` means "use the compiled default",
    any other value — including falsy ones — must be valid) and the backend
    supplies its simulated-runtime defaults (e.g. a fresh
    :class:`SimulatedGPU` for the gpu backend).
    """
    mode = validate_execution_mode(execution_mode, options.execution_mode)
    workers = validate_threads(threads, options.threads)
    runtime = backend.interpreter_kwargs(options, {
        "gpu": gpu, "comm": comm, "rank": rank,
        "decomposition": decomposition,
    })
    return Interpreter(modules, execution_mode=mode, threads=workers,
                       **runtime)


class Program:
    """An immutable handle on one Fortran source, bound to a session.

    ``Program`` is deliberately cheap: it holds the source text only, and
    every :meth:`lower` goes through the session so repeated lowerings of the
    same source hit the compiled-artifact cache.
    """

    __slots__ = ("_source", "_session")

    def __init__(self, source: str, session: "Session"):
        self._source = source
        self._session = session

    @property
    def source(self) -> str:
        return self._source

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def fingerprint(self) -> str:
        return source_fingerprint(self._source)

    def lower(self, backend="cpu", options: Optional[BackendOptions] = None,
              **overrides) -> "CompiledProgram":
        """Compile this program for ``backend`` (name or Backend object),
        returning a fluent compiled handle."""
        return self._session.lower(self._source, backend, options, **overrides)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Program {self.fingerprint[:12]} ({len(self._source)} chars)>"


class CompiledProgram:
    """A compiled artifact as a first-class value: derive, retarget, run."""

    __slots__ = ("_session", "_source", "_backend", "_options", "_artifact")

    def __init__(self, session: "Session", source: str, backend: Backend,
                 options: BackendOptions, artifact: CompiledArtifact):
        self._session = session
        self._source = source
        self._backend = backend
        self._options = options
        self._artifact = artifact

    # -- identity ------------------------------------------------------------

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def source(self) -> str:
        return self._source

    @property
    def backend(self) -> Backend:
        return self._backend

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def options(self) -> BackendOptions:
        return self._options

    @property
    def artifact(self) -> CompiledArtifact:
        return self._artifact

    # -- artifact passthrough ------------------------------------------------

    @property
    def fir_module(self):
        return self._artifact.fir_module

    @property
    def stencil_module(self):
        return self._artifact.stencil_module

    @property
    def modules(self):
        return self._artifact.modules

    # Metadata comes back as copies: the artifact lives in the session cache
    # and is shared by every handle, so caller mutation must not leak in.

    @property
    def discovered_stencils(self) -> Dict[str, int]:
        return dict(self._artifact.discovered_stencils)

    @property
    def extracted_functions(self) -> List[str]:
        return list(self._artifact.extracted_functions)

    @property
    def pass_statistics(self) -> List:
        return list(self._artifact.pass_statistics)

    # -- fluent derivation ---------------------------------------------------

    def with_options(self, **changes) -> "CompiledProgram":
        """A handle with ``changes`` applied to the options.

        Goes back through the session: changes to compile-time options
        recompile (cache miss), runtime-only changes (execution mode,
        threads) re-use the cached artifact (cache hit).
        """
        return self._session.lower(self._source, self._backend, self._options,
                                   **changes)

    def interpret(self) -> "CompiledProgram":
        """Derive a handle running on the scalar reference oracle."""
        return self.with_options(execution_mode="interpret")

    def vectorize(self, threads: Optional[int] = None) -> "CompiledProgram":
        """Derive a handle running compiled NumPy whole-array kernels,
        optionally tiled over ``threads`` workers."""
        changes = {"execution_mode": "vectorize"}
        if threads is not None:
            changes["threads"] = threads
        return self.with_options(**changes)

    def crosscheck(self, threads: Optional[int] = None) -> "CompiledProgram":
        """Derive a handle replaying every vectorized sweep through the
        scalar oracle (the honesty mode)."""
        changes = {"execution_mode": "crosscheck"}
        if threads is not None:
            changes["threads"] = threads
        return self.with_options(**changes)

    def with_threads(self, threads: int) -> "CompiledProgram":
        """Derive a handle whose tiled sweeps use ``threads`` workers."""
        return self.with_options(threads=threads)

    def retarget(self, backend, **overrides) -> "CompiledProgram":
        """Compile the same source for a different backend (fresh options)."""
        return self._session.lower(self._source, backend, None, **overrides)

    def distribute(self, ranks: Optional[int] = None, *,
                   source_builder=None,
                   entry: Optional[str] = None,
                   execution_mode: Optional[str] = None,
                   threads: Optional[int] = None,
                   timeout: float = 30.0,
                   resilience=None):
        """Derive a multi-rank execution plan (dmp backend only).

        The process grid comes from the compiled :class:`DmpOptions` (a
        compile-time cache-key field); ``ranks`` merely asserts the expected
        rank count, and ``execution_mode`` / ``threads`` / ``resilience`` are
        runtime-only.  ``resilience=ResilienceOptions(...)``
        is the recovery policy of the run loop (how often it checkpoints, how
        many crashes it may roll back; fail-fast by default) — like
        ``threads`` it never enters the session cache key.  See
        :class:`repro.api.DistributedProgram`.
        """
        from .distributed import DistributedProgram
        from .options import validate_timeout

        validate_timeout(timeout, self.backend_name)
        return DistributedProgram(
            self, ranks=ranks, source_builder=source_builder, entry=entry,
            execution_mode=execution_mode, threads=threads, timeout=timeout,
            resilience=resilience,
        )

    # -- execution -----------------------------------------------------------

    def interpreter(
        self,
        gpu=None,
        comm=None,
        rank: int = 0,
        decomposition=None,
        execution_mode: Optional[str] = None,
        threads: Optional[int] = None,
    ) -> Interpreter:
        """Build an interpreter (a fresh one per call: it carries the run's
        stats and device) over the artifact's linked FIR and stencil modules.

        ``execution_mode`` and ``threads`` override the handle's options when
        given; see :func:`build_interpreter` for the override semantics.
        """
        return build_interpreter(
            self._backend, self._options, self._artifact.linked,
            gpu=gpu, comm=comm, rank=rank, decomposition=decomposition,
            execution_mode=execution_mode, threads=threads,
        )

    def run(self, entry: str, *args, **kwargs) -> Interpreter:
        """Convenience: build an interpreter and call ``entry`` with ``args``
        (arrays mutate in place); returns the interpreter for stats access."""
        interp = self.interpreter(**kwargs)
        interp.call(entry, *args)
        return interp

    def run_batch(self, entry: str, arg_sets: Sequence[Sequence],
                  workers: Optional[int] = None) -> List[List[object]]:
        """Run ``entry`` once per argument set, concurrently (see
        :meth:`repro.api.Session.run_batch`)."""
        return self._session.run_batch(self, entry, arg_sets, workers=workers)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompiledProgram backend={self.backend_name!r} "
            f"mode={self._options.execution_mode!r} "
            f"threads={self._options.threads}>"
        )


__all__ = ["source_fingerprint", "build_interpreter", "Program",
           "CompiledProgram"]
