"""The fluent distributed-execution handle.

.. code-block:: python

    import repro
    from repro.apps import gauss_seidel

    program = repro.compile(gauss_seidel.generate_source_shaped((14, 14, 14)))
    dist = (program.lower("dmp", grid=(2, 2), execution_mode="vectorize")
                   .distribute(source_builder=gauss_seidel.generate_source_shaped))
    result = dist.run(global_field, iterations=3)   # hides all sharding
    result.field                                    # gathered global array
    result.rank_stats                               # per-rank messages/bytes/times

``CompiledProgram.distribute()`` (dmp backend only) wraps the compiled
handle in a :class:`DistributedProgram` whose :meth:`DistributedProgram.run`
scatters a global Fortran-ordered field, runs one interpreter per simulated
rank on a thread of its own (:mod:`repro.runtime.distributed_executor`),
and gathers the result.  The
process grid lives in the frozen :class:`repro.api.DmpOptions` (part of the
session cache key — a new grid is a recompile); every rank runs with the
handle's execution mode and threads, runtime-only options that never force
one.

Rank-local compilation goes back through the bound session: with no
``source_builder`` every rank runs the program's own source (so the
decomposition must give every rank the same padded shape, matching the
compiled extents); with one, each distinct padded local shape is generated
and compiled once per session — which is what lets non-divisible global
domains, where ranks own different-sized boxes, execute at all.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from ..dialects import fir as fir_dialect
from ..dialects.func import FuncOp
from ..runtime.distributed_executor import (
    DistributedExecutor,
    DistributedRunResult,
)
from ..runtime.interpreter import Interpreter
from ..runtime.mpi_runtime import CartesianDecomposition, SimulatedCommunicator
from ..resilience import ResilienceOptions
from .options import OptionError, validate_timeout

if TYPE_CHECKING:  # pragma: no cover
    from .program import CompiledProgram

#: Builds rank-local Fortran source for one padded local shape.
SourceBuilder = Callable[[Tuple[int, ...]], str]


def detect_halo(compiled: "CompiledProgram") -> int:
    """The widest ``dmp.halo`` width ``convert-stencil-to-dmp`` recorded on
    the lowered stencil module's functions (the ghost-plane padding every
    rank-local array needs); 1 when the module carries no distributed
    metadata."""
    module = compiled.stencil_module
    widest = 0
    if module is not None:
        for op in module.walk_type(FuncOp):
            attr = op.get_attr_or_none("dmp.halo")
            if attr is not None:
                widest = max(widest, *attr.as_tuple())
    return widest if widest > 0 else 1


def detect_entry(compiled: "CompiledProgram") -> str:
    """The single non-declaration function of the FIR module (the original
    Fortran subroutine); ambiguous modules must name the entry explicitly."""
    names = [
        op.sym_name for op in compiled.fir_module.walk()
        if isinstance(op, FuncOp) and not op.is_declaration
    ]
    if len(names) != 1:
        raise OptionError(
            f"cannot infer the entry point from functions {names or 'none'}; "
            "pass distribute(entry=...)"
        )
    return names[0]


def _entry_array_shape(compiled: "CompiledProgram", entry: str) -> Optional[Tuple[int, ...]]:
    """Declared extents of ``entry``'s single array argument (None when the
    signature is not one statically-shaped array)."""
    for op in compiled.fir_module.walk():
        if isinstance(op, FuncOp) and op.sym_name == entry:
            inputs = op.function_type.inputs
            if len(inputs) != 1:
                return None
            arg_type = inputs[0]
            if fir_dialect.is_reference_like(arg_type):
                arg_type = arg_type.element_type
            shape = getattr(arg_type, "shape", None)
            if shape is None:
                return None
            return tuple(int(s) for s in shape)
    return None


class DistributedProgram:
    """A compiled dmp program bound to a multi-rank execution plan."""

    def __init__(self, compiled: "CompiledProgram", *,
                 source_builder: Optional[SourceBuilder] = None,
                 entry: Optional[str] = None,
                 timeout: float = 30.0):
        if compiled.backend_name != "dmp":
            raise OptionError(
                "distribute() requires the 'dmp' backend; this handle was "
                f"lowered for '{compiled.backend_name}' — use "
                "program.lower('dmp', grid=...)"
            )
        timeout = validate_timeout(timeout,
                                   f"the '{compiled.backend_name}' backend")
        self._compiled = compiled
        self._source_builder = source_builder
        self._entry = entry
        self._executor = DistributedExecutor(
            compiled.options.grid, halo=detect_halo(compiled), timeout=timeout)

    # -- identity ------------------------------------------------------------

    @property
    def entry(self) -> str:
        if self._entry is None:
            self._entry = detect_entry(self._compiled)
        return self._entry

    # -- execution -----------------------------------------------------------

    def run(self, global_field: np.ndarray,
            iterations: int = 1,
            resilience: Optional[ResilienceOptions] = None,
            ) -> DistributedRunResult:
        """Scatter ``global_field``, run every rank, gather the result.

        The input is not mutated; the gathered global array is
        ``result.field``, and ``result.rank_stats`` carries the per-rank
        message/byte counts and halo/kernel wall-times.  ``resilience`` is
        this run's recovery policy (``None`` fails fast on the first crash);
        ``result.recovery`` always carries the run's
        :class:`~repro.resilience.RecoveryReport`.
        """
        if not isinstance(resilience, (ResilienceOptions, type(None))):
            raise OptionError(
                "resilience must be a ResilienceOptions instance, got "
                f"{type(resilience).__name__}"
            )
        entry = self.entry
        expected = _entry_array_shape(self._compiled, entry)
        if expected is not None and np.ndim(global_field) != len(expected):
            raise OptionError(
                f"entry '{entry}' is compiled for rank-{len(expected)} arrays "
                f"but the global field has rank {np.ndim(global_field)}")
        # One handle per distinct rank-local shape.
        handles: Dict[Tuple[int, ...], "CompiledProgram"] = {}

        def handle_for(local_shape: Tuple[int, ...]) -> "CompiledProgram":
            handle = handles.get(local_shape)
            if handle is not None:
                return handle
            if self._source_builder is None:
                if expected is not None and expected != local_shape:
                    raise OptionError(
                        f"entry '{entry}' is compiled for array extents "
                        f"{expected} but rank-local arrays have shape "
                        f"{local_shape}; either size the global field so "
                        "every rank owns the compiled extents, or pass "
                        "distribute(source_builder=...) to compile per shape"
                    )
                handle = self._compiled
            else:
                source = self._source_builder(tuple(local_shape))
                handle = self._compiled.session.lower(
                    source, self._compiled.backend, self._compiled.options
                )
            handles[local_shape] = handle
            return handle

        def make_interpreter(rank: int, local_shape: Tuple[int, ...],
                             comm: SimulatedCommunicator,
                             decomposition: CartesianDecomposition) -> Interpreter:
            return handle_for(tuple(local_shape)).interpreter(
                comm=comm, rank=rank, decomposition=decomposition)

        return self._executor.run(global_field, make_interpreter, entry,
                                  iterations=iterations,
                                  resilience=resilience)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DistributedProgram grid={self._executor.grid}>"


__all__ = ["DistributedProgram", "SourceBuilder", "detect_halo",
           "detect_entry"]
