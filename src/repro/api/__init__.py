"""``repro.api`` — the fluent, registry-based public compiler API.

The paper's compile-separately / link-at-runtime flow (§3, Figure 1) exposed
through three composable layers:

* **Backend registry** (:mod:`repro.api.backends`) — each target (``cpu``,
  ``openmp``, ``gpu``, ``dmp``, ``flang-only``) is a registered
  :class:`Backend` owning its pipeline string, its option schema and its
  simulated-runtime wiring.  Register your own backend to extend the system.
* **Fluent programs** (:mod:`repro.api.program`) — ``repro.compile(source)``
  returns an immutable :class:`Program`; ``program.lower("openmp",
  lower_to_scf=True).vectorize(threads=4).run(entry, *args)`` derives and
  executes compiled handles without mutating anything.
* **Sessions** (:mod:`repro.api.session`) — a :class:`Session` memoizes
  compiled artifacts by (source hash, backend, frozen options) and runs
  argument batches concurrently via :meth:`Session.run_batch`.
"""

from __future__ import annotations

from typing import Optional

from .artifact import CompiledArtifact
from .backends import (
    Backend,
    BackendRegistry,
    CpuBackend,
    DmpBackend,
    FlangOnlyBackend,
    GpuBackend,
    OpenMPBackend,
    UnknownBackendError,
    get_backend,
    registry,
)
from .options import (
    GPU_DATA_STRATEGIES,
    BackendOptions,
    CpuOptions,
    DmpOptions,
    FlangOnlyOptions,
    GpuOptions,
    OpenMPOptions,
    OptionError,
)
from .distributed import DistributedProgram
from .program import CompiledProgram, Program, source_fingerprint
from .session import Session, default_session


def compile(source: str, *, session: Optional[Session] = None) -> Program:
    """Compile ``source`` into a fluent :class:`Program`.

    Uses the process-wide default session (shared artifact cache) unless a
    ``session`` is given.  The heavy lifting happens lazily at
    ``program.lower(...)`` time, memoized per (source, backend, options).
    """
    return (session if session is not None else default_session()).compile(source)


__all__ = [
    "compile",
    "Program",
    "CompiledProgram",
    "DistributedProgram",
    "CompiledArtifact",
    "Session",
    "default_session",
    "source_fingerprint",
    "Backend",
    "BackendRegistry",
    "UnknownBackendError",
    "FlangOnlyBackend",
    "CpuBackend",
    "OpenMPBackend",
    "GpuBackend",
    "DmpBackend",
    "registry",
    "get_backend",
    "OptionError",
    "GPU_DATA_STRATEGIES",
    "BackendOptions",
    "FlangOnlyOptions",
    "CpuOptions",
    "OpenMPOptions",
    "GpuOptions",
    "DmpOptions",
]
