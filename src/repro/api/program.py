"""The fluent ``Program`` / ``CompiledProgram`` layer.

In the spirit of the Exo/SYS_ATL scheduling API, a compiled object is a
first-class immutable value you *derive* rather than mutate:

.. code-block:: python

    import repro

    program = repro.compile(fortran_source)
    compiled = program.lower("openmp").vectorize(threads=4)
    compiled.run("pw_advection", u, v, w, su, sv, sw)

Every derivation (``lower``, ``vectorize``, ``with_threads``, ``retarget``,
...) returns a *new* handle; the underlying :class:`CompiledArtifact` comes
from the bound :class:`repro.api.Session`'s cache, so derivations that only
change runtime policy (execution mode, thread count) share the already
compiled modules instead of re-running discovery/extraction.
"""

from __future__ import annotations

import hashlib
import inspect
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from ..runtime.interpreter import Interpreter
from ..runtime.sweep import usable_cpus
from .artifact import CompiledArtifact
from .backends import Backend
from .options import (RUNTIME_ONLY_FIELDS, BackendOptions, OptionError,
                      require_count)

if TYPE_CHECKING:  # pragma: no cover
    from .session import Request, Session


def source_fingerprint(source: str) -> str:
    """Stable identity of one Fortran source (artifact-cache key component)."""
    if not isinstance(source, str):
        raise OptionError(
            f"source must be Fortran source text, got {type(source).__name__}")
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


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

    def lower(self, backend="cpu", options: Optional[BackendOptions] = None,
              **overrides) -> "CompiledProgram":
        """Compile this program for ``backend`` (name or Backend object),
        returning a fluent compiled handle."""
        return self._session.lower(self._source, backend, options, **overrides)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Program {source_fingerprint(self._source)[:12]} ({len(self._source)} chars)>"


class CompiledProgram:
    """A compiled artifact as a first-class value: derive, retarget, run.

    It holds its :class:`repro.api.Request` and the artifact of the request's
    key, which every handle of that key shares."""

    __slots__ = ("_session", "_request", "_artifact")

    def __init__(self, session: "Session", request: "Request",
                 artifact: CompiledArtifact):
        self._session = session
        self._request = request
        self._artifact = artifact

    # -- identity ------------------------------------------------------------

    @property
    def session(self) -> "Session":
        return self._session

    @property
    def source(self) -> str:
        return self._request.source

    @property
    def backend(self) -> Backend:
        return self._request.backend

    @property
    def backend_name(self) -> str:
        return self._request.backend.name

    @property
    def options(self) -> BackendOptions:
        return self._request.options

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
        return self._session.lower(self.source, self.backend, self.options,
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
        return self._session.lower(self.source, backend, None, **overrides)

    def distribute(self, *, source_builder=None,
                   entry: Optional[str] = None,
                   timeout: float = 30.0):
        """Derive a multi-rank execution plan (dmp backend only).

        The process grid comes from the compiled :class:`DmpOptions` (a
        compile-time cache-key field) and every rank runs with the handle's
        ``execution_mode`` and ``threads`` (derive them with
        :meth:`with_options`, a cache hit), so the grid alone fixes the rank
        count.  Each ``plan.run(field, resilience=...)``
        chooses its own recovery policy.  See
        :class:`repro.api.DistributedProgram`.
        """
        from .distributed import DistributedProgram

        return DistributedProgram(
            self, source_builder=source_builder, entry=entry, timeout=timeout)

    # -- execution -----------------------------------------------------------

    def interpreter(
        self,
        gpu=None,
        comm=None,
        rank: int = 0,
        decomposition=None,
    ) -> Interpreter:
        """Build an interpreter (a fresh one per call: it carries the run's
        stats and device) over the artifact's linked FIR and stencil modules,
        running with the handle's ``execution_mode`` and ``threads`` (derive
        others with :meth:`with_options`, a cache hit).
        """
        options = self._request.options
        return Interpreter(
            self._artifact.linked, execution_mode=options.execution_mode,
            threads=options.threads, gpu=gpu, comm=comm, rank=rank,
            decomposition=decomposition)

    def run(self, entry: str, *args, **kwargs) -> Interpreter:
        """Convenience: build an interpreter (``kwargs`` are those of
        :meth:`interpreter`) and call ``entry`` with ``args`` (arrays mutate
        in place); returns the interpreter for stats access."""
        unknown = sorted(set(kwargs) - set(_INTERPRETER_KEYWORDS))
        if unknown:
            raise OptionError(
                f"run() does not accept keyword(s) "
                f"{', '.join(map(repr, unknown))}; accepted: "
                f"{', '.join(_INTERPRETER_KEYWORDS)}"
                + ("; runtime options belong to the handle: derive it with "
                   "with_options(...)"
                   if RUNTIME_ONLY_FIELDS.intersection(unknown) else ""))
        interp = self.interpreter(**kwargs)
        interp.call(entry, *args)
        return interp

    def run_batch(self, entry: str, arg_sets: Sequence[Sequence],
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
            return self.interpreter().call(entry, *args)

        if workers is None:
            workers = min(len(arg_sets), usable_cpus())
        if workers == 1 or len(arg_sets) == 1:
            return [run_one(args) for args in arg_sets]
        with ThreadPoolExecutor(max_workers=workers,
                                thread_name_prefix="repro-batch") as pool:
            return list(pool.map(run_one, arg_sets))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<CompiledProgram backend={self.backend_name!r} "
            f"mode={self.options.execution_mode!r} "
            f"threads={self.options.threads}>"
        )


#: The keywords :meth:`CompiledProgram.run` passes on to ``interpreter()``.
_INTERPRETER_KEYWORDS = tuple(
    inspect.signature(CompiledProgram.interpreter).parameters)[1:]


__all__ = ["source_fingerprint", "Program",
           "CompiledProgram"]
