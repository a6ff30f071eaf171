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
from typing import ClassVar, Optional, Tuple

from ..runtime.kernel_compiler import EXECUTION_MODES

#: GPU host/device data-management strategies (paper Figure 5).
GPU_DATA_STRATEGIES = ("optimised", "host_register")

#: Option fields that select how compiled modules *execute*, not what is
#: compiled.  Excluded from the artifact cache key so runtime derivations
#: (``.vectorize()``, ``.with_threads()``) never force a recompile.
RUNTIME_ONLY_FIELDS = frozenset({"execution_mode", "threads"})


class OptionError(ValueError):
    """An option value (or an option/backend combination) is invalid."""


def validate_timeout(value: float, owner: str) -> float:
    """Reject a non-positive timeout where it is passed in, naming its
    ``owner`` (e.g. "the 'dmp' backend"), instead of deep inside
    ``SimulatedCommunicator`` mid-run or as a request that can never
    complete."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OptionError(
            f"timeout must be a positive number of seconds for {owner}, "
            f"got {value!r}"
        )
    if value <= 0:
        raise OptionError(f"timeout must be positive for {owner}, got {value!r}")
    return float(value)


def _is_count(value) -> bool:
    """A positive ``int`` that is not a ``bool`` (``True`` is not 1 thread)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def require_count(name: str, value) -> None:
    """Reject a thread, worker, queue or byte count that is not
    :func:`_is_count` with an :class:`OptionError` naming the parameter
    ``name``."""
    if not _is_count(value):
        raise OptionError(f"{name} must be an integer >= 1, got {value!r}")


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

    ``lower_to_scf`` is a choice on cpu alone: keep the extracted stencil
    module at the stencil level (the default, the fast vectorised execution
    path) or lower it to scf loops.  A backend with one lowering names it in
    :attr:`one_lowering`: the field defaults to it and refuses the other
    value.  ``fuse_stencils`` toggles adjacent-stencil fusion (ablation E9);
    ``execution_mode`` and ``threads`` configure the interpreter that
    eventually runs the compiled modules.
    """

    lower_to_scf: Optional[bool] = None
    fuse_stencils: bool = True
    execution_mode: str = "interpret"
    threads: int = 1

    #: ``(backend, value, advice)``: the one ``lower_to_scf`` value of a
    #: backend with one lowering (``None``: a choice, default ``False``).
    one_lowering: ClassVar[Optional[Tuple[str, bool, str]]] = None

    def __post_init__(self) -> None:
        backend, fixed, advice = self.one_lowering or ("", None, "")
        lowered = fixed if self.lower_to_scf is None else bool(self.lower_to_scf)
        if fixed is not None and lowered != fixed:
            raise OptionError(
                f"backend '{backend}' has one lowering: lower_to_scf is "
                f"always {fixed}; {advice}")
        object.__setattr__(self, "lower_to_scf", bool(lowered))
        if self.execution_mode not in EXECUTION_MODES:
            raise OptionError(
                f"execution_mode must be one of {EXECUTION_MODES}, "
                f"got {self.execution_mode!r}"
            )
        require_count("threads", self.threads)

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

    one_lowering = ("flang-only", False, "it has no stencil module to lower")


@dataclass(frozen=True)
class CpuOptions(BackendOptions):
    """Single-core CPU via the stencil flow, at either lowering level."""


@dataclass(frozen=True)
class OpenMPOptions(BackendOptions):
    """Multi-threaded CPU (OpenMP): always lowered to ``omp.wsloop`` nests,
    each sweep's outermost loop split statically across ``threads``,
    OpenMP's default schedule."""

    one_lowering = ("openmp", True,
                    'its stencil-level run is lower("cpu", threads=N)')


@dataclass(frozen=True)
class GpuOptions(BackendOptions):
    """Nvidia GPU (simulated V100).

    Always lowered by the paper's Listing 4 pipeline to ``gpu.launch_func``
    ops.  ``data_strategy`` selects the paper's bespoke host/device
    data-movement pass (``"optimised"``) or the naive ``gpu.host_register``
    strategy, and is compile-time cache-key material.  The parallel-loop
    tile sizes are not an option: every kernel is tiled with the paper's
    Listing 4 ``(32, 32, 1)``, clipped to its domain and padded with 1s
    past its rank.
    """

    data_strategy: str = "optimised"

    one_lowering = ("gpu", True, "every kernel runs as a gpu.launch_func")

    def __post_init__(self) -> None:
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

    one_lowering = ("dmp", False, "every rank runs at the stencil level")

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", _positive_ints("grid", self.grid))
        super().__post_init__()


__all__ = [
    "GPU_DATA_STRATEGIES",
    "RUNTIME_ONLY_FIELDS",
    "OptionError",
    "validate_timeout",
    "BackendOptions",
    "FlangOnlyOptions",
    "CpuOptions",
    "OpenMPOptions",
    "GpuOptions",
    "DmpOptions",
]
