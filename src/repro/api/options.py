"""Per-backend option schemas.

Each backend owns a frozen (hashable) dataclass holding exactly the options it
understands (a CPU compile cannot carry ``grid=(4, 4)``); passing an option a backend does not define is an
:class:`OptionError` at call time, and validation happens in ``__post_init__``
so an options object can never exist in an invalid state.

Frozen options double as cache-key material: :meth:`BackendOptions.cache_key`
drops the *runtime-only* fields (``execution_mode``, ``threads`` — they select
how compiled modules execute, not what is compiled), so deriving a vectorized
or multi-threaded handle from a compiled program hits the same
:class:`repro.api.Session` cache entry instead of recompiling.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, fields
from typing import Optional, Tuple

from ..runtime.kernel_compiler import EXECUTION_MODES

#: GPU host/device data-management strategies (paper Figure 5).
GPU_DATA_STRATEGIES = ("optimised", "host_register")

#: Option fields that select how compiled modules *execute*, not what is
#: compiled.  Excluded from the artifact cache key so runtime derivations
#: (``.vectorize()``, ``.with_threads()``) never force a recompile.
RUNTIME_ONLY_FIELDS = frozenset({"execution_mode", "threads"})


class OptionError(ValueError):
    """An option value (or an option/backend combination) is invalid."""


def validate_execution_mode(value: Optional[str], default: str) -> str:
    """Resolve an execution-mode override: ``None`` means "use the default";
    anything else — including falsy strings — must be a valid mode."""
    if value is None:
        return default
    if value not in EXECUTION_MODES:
        raise OptionError(
            f"execution_mode must be one of {EXECUTION_MODES}, got {value!r}"
        )
    return value


def validate_timeout(value: float, backend: str) -> float:
    """Reject a non-positive communicator timeout at the fluent layer, with
    the backend named, instead of deep inside ``SimulatedCommunicator``
    mid-run."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OptionError(
            f"timeout must be a positive number of seconds for the "
            f"'{backend}' backend, got {value!r}"
        )
    if value <= 0:
        raise OptionError(
            f"timeout must be positive for the '{backend}' backend, got "
            f"{value!r}"
        )
    return float(value)


def validate_threads(value: Optional[int], default: int) -> int:
    """Resolve a thread-count override: ``None`` means "use the default";
    anything else — including 0 — must be a positive integer."""
    if value is None:
        return default
    if not isinstance(value, int) or value < 1:
        raise OptionError(f"threads must be >= 1, got {value!r}")
    return value


def _positive_ints(name: str, value) -> Tuple[int, ...]:
    """``value`` as a non-empty tuple of positive integers, else an
    :class:`OptionError` naming the option ``name``."""
    try:
        ints = tuple(operator.index(v) for v in value)
    except TypeError:
        raise OptionError(
            f"{name} must be a sequence of integers, got {value!r}") from None
    if not ints or any(v < 1 for v in ints):
        raise OptionError(f"{name} must be positive, got {ints}")
    return ints


@dataclass(frozen=True)
class BackendOptions:
    """Options every backend understands.

    ``lower_to_scf`` chooses whether the extracted stencil module is lowered
    all the way to scf/omp/gpu loops or kept at the stencil level (the fast
    vectorised execution path); ``fuse_stencils`` toggles adjacent-stencil
    fusion (ablation E9); ``execution_mode`` and ``threads`` configure the
    interpreter that eventually runs the compiled modules.
    """

    lower_to_scf: bool = False
    fuse_stencils: bool = True
    execution_mode: str = "interpret"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.execution_mode not in EXECUTION_MODES:
            raise OptionError(
                f"execution_mode must be one of {EXECUTION_MODES}, "
                f"got {self.execution_mode!r}"
            )
        if not isinstance(self.threads, int) or self.threads < 1:
            raise OptionError(f"threads must be >= 1, got {self.threads!r}")

    # -- derivation & caching ------------------------------------------------

    def replace(self, **changes) -> "BackendOptions":
        """A copy with ``changes`` applied (frozen dataclasses re-validate)."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> Tuple:
        """Hashable identity of everything that affects *compilation*."""
        return tuple(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name not in RUNTIME_ONLY_FIELDS
        )

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class FlangOnlyOptions(BackendOptions):
    """Plain FIR, no stencil specialisation — nothing beyond the basics."""


@dataclass(frozen=True)
class CpuOptions(BackendOptions):
    """Single-core CPU via the stencil flow."""


@dataclass(frozen=True)
class OpenMPOptions(BackendOptions):
    """Multi-threaded CPU (OpenMP): every sweep's outermost loop is split
    statically across ``threads``, OpenMP's default schedule."""


@dataclass(frozen=True)
class GpuOptions(BackendOptions):
    """Nvidia GPU (simulated V100).

    ``data_strategy`` selects the paper's bespoke host/device data-movement
    pass (``"optimised"``) or the naive ``gpu.host_register`` strategy;
    ``tile_sizes`` are the parallel-loop tile sizes of Listing 4 — ``None``
    (the default) adapts the paper's ``(32, 32, 1)`` to each kernel's rank
    at lower time, while an explicit tuple is validated against every
    lowered loop nest's rank (a mismatch is a loud :class:`OptionError`
    naming the kernel, never a silently ignored dimension).  Both are
    compile-time cache-key material.
    """

    data_strategy: str = "optimised"
    tile_sizes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.tile_sizes is not None:
            object.__setattr__(self, "tile_sizes",
                               _positive_ints("tile_sizes", self.tile_sizes))
        super().__post_init__()
        if self.data_strategy not in GPU_DATA_STRATEGIES:
            raise OptionError(
                f"data_strategy must be one of {GPU_DATA_STRATEGIES}, "
                f"got {self.data_strategy!r}"
            )


@dataclass(frozen=True)
class DmpOptions(BackendOptions):
    """Distributed memory via the DMP/MPI dialects.

    ``grid`` is the Cartesian process grid the domain is decomposed over,
    e.g. ``(4, 4)`` for 16 ranks.
    """

    grid: Tuple[int, ...] = (1, 1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _positive_ints("grid", self.grid))
        super().__post_init__()


__all__ = [
    "GPU_DATA_STRATEGIES",
    "RUNTIME_ONLY_FIELDS",
    "OptionError",
    "validate_execution_mode",
    "validate_threads",
    "validate_timeout",
    "BackendOptions",
    "FlangOnlyOptions",
    "CpuOptions",
    "OpenMPOptions",
    "GpuOptions",
    "DmpOptions",
]
