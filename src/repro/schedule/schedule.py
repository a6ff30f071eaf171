"""The fluent :class:`Schedule` layer: user-schedulable compiled kernels.

In the spirit of Halide/TVM/Exo, a *schedule* is a chain of composable
transforms applied to an already-compiled program without touching its
source.  ``CompiledProgram.schedule()`` returns a :class:`Schedule` wrapping
the handle; every directive derives a **new immutable handle** through the
session, with the directive chain recorded on
``BackendOptions.schedule_chain`` — compile-time cache-key material, so two
handles with different schedules are distinct artifacts while runtime knobs
(``execution_mode``, ``threads``) stay runtime-only:

.. code-block:: python

    fast = (program.lower("openmp", lower_to_scf=True)
                   .schedule()
                   .tile(1, 32, 16)
                   .reorder(1, 0)
                   .verify()          # bitwise-proven against the oracle
                   .compiled)

Directives that are *structurally* impossible (wrong tile rank, permutation
deeper than the serial nest, unroll of a dynamic loop) raise
:class:`ScheduleError` at derivation time, from inside ``Backend.lower``.
Directives that are structurally fine but *semantically* illegal — e.g.
reordering an in-place Gauss–Seidel sweep whose iterations carry a
dependence — compile silently; :meth:`Schedule.verify` exists to catch
exactly those: it runs the scheduled handle (in crosscheck mode where the
backend supports it) and the unscheduled parent on the scalar oracle over
identical inputs and demands **bitwise** equality, raising
:class:`ScheduleVerificationError` on any difference.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..dialects import fir
from ..dialects.func import FuncOp
from ..runtime.memory import numpy_dtype_for
from .directives import ScheduleError, describe_chain

#: Seed material for deterministic verification inputs (one stream per arg).
_VERIFY_SEED = 0x5EED


class ScheduleVerificationError(ScheduleError):
    """A scheduled program's outputs differ bitwise from its unscheduled
    parent — the schedule changed the program's meaning."""


def synthesize_args(func_op: FuncOp) -> List[object]:
    """Deterministic arguments matching ``func_op``'s FIR signature.

    Arrays become positive Fortran-ordered random fields (one rng stream per
    argument position, so the values are stable across runs and processes);
    scalars become fixed constants.  Only statically shaped signatures can be
    synthesized — anything else needs caller-provided arguments.
    """
    args: List[object] = []
    for position, arg_type in enumerate(func_op.function_type.inputs):
        element = arg_type
        if fir.is_reference_like(arg_type):
            element = arg_type.element_type  # type: ignore[union-attr]
        if isinstance(element, fir.SequenceType):
            if not element.has_static_shape():
                raise ScheduleError(
                    f"verify: argument {position} of '{func_op.sym_name}' has "
                    f"a dynamic shape {element.print()}; pass args=... "
                    f"explicitly"
                )
            rng = np.random.default_rng([_VERIFY_SEED, position])
            values = rng.uniform(0.5, 2.0, size=element.shape)
            dtype = numpy_dtype_for(element.element_type)
            args.append(np.asfortranarray(values.astype(dtype)))
        else:
            dtype = numpy_dtype_for(element)
            scalar = 1.5 if np.issubdtype(dtype, np.floating) else 2
            args.append(dtype.type(scalar))
    return args


class Schedule:
    """A compiled program plus its (possibly empty) schedule chain.

    Immutable and cheap: the real state lives in the wrapped
    :class:`repro.api.CompiledProgram`, and each directive method returns a
    new :class:`Schedule` over a newly derived handle.
    """

    __slots__ = ("_compiled",)

    def __init__(self, compiled):
        self._compiled = compiled

    # -- introspection -------------------------------------------------------

    @property
    def compiled(self):
        """The scheduled :class:`repro.api.CompiledProgram` handle."""
        return self._compiled

    @property
    def chain(self) -> Tuple[Tuple, ...]:
        return self._compiled.options.schedule_chain

    def describe(self) -> str:
        return describe_chain(self.chain) or "<unscheduled>"

    # -- loop directives (compile-time, IR-rewriting) ------------------------

    def _derive(self, directive: Tuple) -> "Schedule":
        chain = self.chain + (directive,)
        return Schedule(self._compiled.with_options(schedule_chain=chain))

    @staticmethod
    def _flatten(values) -> Tuple[int, ...]:
        if len(values) == 1 and isinstance(values[0], (tuple, list)):
            values = tuple(values[0])
        return tuple(values)

    def tile(self, *sizes) -> "Schedule":
        """Execute the sweep in ``sizes``-shaped sub-boxes of the domain
        (cache blocking).  One size per iteration-space dimension — a rank
        mismatch is a loud error at derivation time."""
        return self._derive(("tile", self._flatten(sizes)))

    def reorder(self, *perm) -> "Schedule":
        """Permute the innermost serial loops of each nest: ``reorder(1, 0)``
        swaps the two innermost.  Parallel dimensions cannot be reordered."""
        return self._derive(("reorder", self._flatten(perm)))

    def unroll(self, loop: int, factor: int) -> "Schedule":
        """Unroll serial loop ``loop`` (0 = outermost serial) by ``factor``;
        the trip count must be a static multiple of ``factor``."""
        return self._derive(("unroll", (loop, factor)))

    # -- backend knobs (options, not IR rewrites) ----------------------------

    def _require_backend(self, knob: str, *names: str) -> None:
        if self._compiled.backend_name not in names:
            raise ScheduleError(
                f"{knob}: only the {' / '.join(map(repr, names))} backend"
                f"{'s' if len(names) > 1 else ''} accept"
                f"{'' if len(names) > 1 else 's'} this directive "
                f"(compiled for '{self._compiled.backend_name}')"
            )

    def omp(self, schedule: Optional[str] = None,
            chunk: Optional[int] = None) -> "Schedule":
        """Set the OpenMP worksharing schedule clause (openmp backend)."""
        self._require_backend("omp", "openmp")
        changes = {}
        if schedule is not None:
            changes["schedule"] = schedule
        if chunk is not None:
            changes["chunk_size"] = chunk
        if not changes:
            return self
        return Schedule(self._compiled.with_options(**changes))

    def blocks(self, *shape) -> "Schedule":
        """Set the GPU parallel-loop tile ("thread block") sizes; validated
        against every kernel's rank at lower time (gpu backend)."""
        self._require_backend("blocks", "gpu")
        return Schedule(
            self._compiled.with_options(tile_sizes=self._flatten(shape)))

    def grid(self, *shape) -> "Schedule":
        """Set the distributed process grid (dmp backend)."""
        self._require_backend("grid", "dmp")
        return Schedule(self._compiled.with_options(grid=self._flatten(shape)))

    # -- execution & verification --------------------------------------------

    def run(self, entry: str, *args, **kwargs):
        """Run the scheduled handle (see :meth:`CompiledProgram.run`)."""
        return self._compiled.run(entry, *args, **kwargs)

    def _entry_candidates(self) -> List[str]:
        names = []
        for op in self._compiled.artifact.fir_module.walk():
            if isinstance(op, FuncOp) and not op.is_declaration:
                names.append(op.sym_name)
        return names

    def _resolve_entry(self, entry: Optional[str]) -> FuncOp:
        module = self._compiled.artifact.fir_module
        if entry is None:
            candidates = self._entry_candidates()
            if len(candidates) != 1:
                raise ScheduleError(
                    f"verify: cannot infer the entry point from "
                    f"{candidates or 'an empty module'}; pass entry=..."
                )
            entry = candidates[0]
        func_op = module.get_symbol(entry)
        if not isinstance(func_op, FuncOp) or func_op.is_declaration:
            raise ScheduleError(f"verify: no function '{entry}' to call")
        return func_op

    def verify(self, entry: Optional[str] = None,
               args: Optional[Sequence[object]] = None) -> "Schedule":
        """Prove this schedule semantics-preserving, bitwise.

        Runs the **unscheduled parent** on the scalar reference oracle
        (``interpret`` mode) and this scheduled handle in ``crosscheck`` mode
        (every vectorized sweep replayed through the scalar oracle; plain
        ``interpret`` for flang-only) over identical deterministic inputs,
        then compares every array argument with ``ndarray.tobytes()``.  Any
        difference — a reordered loop-carried dependence, a tile crossing a
        sweep's in-place update — raises :class:`ScheduleVerificationError`
        naming the arrays and the offending chain.  Returns ``self`` so a
        verified schedule chains straight into ``.run(...)``.
        """
        compiled = self._compiled
        if compiled.backend_name == "dmp":
            raise ScheduleError(
                "verify: the dmp backend runs through a distributed plan; "
                "verify the schedule on 'cpu'/'openmp' and retarget, or "
                "compare plans via the fuzz farm's dmp oracle"
            )
        func_op = self._resolve_entry(entry)
        if args is None:
            args = synthesize_args(func_op)
        if not self.chain:
            return self  # nothing to prove: this *is* the parent

        def clone(values):
            return [np.copy(v, order="F") if isinstance(v, np.ndarray) else v
                    for v in values]

        parent = compiled.with_options(schedule_chain=())
        oracle_args = clone(args)
        parent.interpreter(execution_mode="interpret").call(
            func_op.sym_name, *oracle_args)

        mode = ("interpret" if compiled.backend_name == "flang-only"
                else "crosscheck")
        scheduled_args = clone(args)
        from ..runtime.interpreter import InterpreterError
        try:
            compiled.interpreter(execution_mode=mode).call(
                func_op.sym_name, *scheduled_args)
        except InterpreterError as err:
            raise ScheduleVerificationError(
                f"schedule {self.describe()} failed the crosscheck oracle on "
                f"'{func_op.sym_name}': {str(err).splitlines()[0]}"
            ) from err

        differing = []
        max_diff = 0.0
        for position, (expected, actual) in enumerate(
                zip(oracle_args, scheduled_args)):
            if not isinstance(expected, np.ndarray):
                continue
            if expected.tobytes() != actual.tobytes():
                differing.append(f"arg{position}")
                with np.errstate(invalid="ignore"):
                    delta = np.abs(expected - actual)
                finite = delta[np.isfinite(delta)]
                diff = float(finite.max()) if finite.size else float("inf")
                max_diff = max(max_diff, diff)
        if differing:
            raise ScheduleVerificationError(
                f"schedule {self.describe()} changes '{func_op.sym_name}' on "
                f"backend '{compiled.backend_name}': arrays "
                f"{differing} differ from the unscheduled program "
                f"(max|diff|={max_diff:.3e}) — the schedule is illegal for "
                f"this kernel"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Schedule {self.describe()} over "
                f"backend={self._compiled.backend_name!r}>")


__all__ = ["Schedule", "ScheduleVerificationError", "synthesize_args"]
