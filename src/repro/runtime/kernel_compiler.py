"""Vectorized kernel compilation backend for stencil execution.

The scalar interpreter executes the scf/omp loop nests produced by
``convert-stencil-to-scf`` one grid point at a time, dispatching every
``memref.load`` / ``arith.*`` / ``memref.store`` through a Python handler
table.  That is the dominant cost of every lowered benchmark.  This module
instead *compiles* the body of such a loop nest — and the body region of a
``stencil.apply`` — into a single Python function built out of NumPy
whole-array slice expressions, so one sweep of the stencil executes as a
handful of vectorised array operations.

Architecture
============

:class:`KernelCompiler` is the entry point.  It keeps a **kernel cache**
keyed on the *structural hash* of the source operation (op names, attributes,
types and internal dataflow, with external SSA values numbered in first-use
order), so two structurally identical sweeps — the same ``scf.parallel``
executed once per time step, or the same stencil compiled into a second
module — share one compiled kernel.  A per-op identity memo (the linked
artifact's ``LinkTable``) makes the per-sweep lookup a single dict probe.

Compilation translates IR to Python source:

* loop induction variables become *affine index descriptors* ``iv[d] + c``;
* ``memref.load`` / ``stencil.access`` with affine indices become NumPy basic
  slices of the underlying array, e.g. ``a[lb0-1:ub0-1, lb1:ub1]`` — each
  distinct window bound once and shared by every load of it;
* element-wise ``arith`` / ``math`` ops become the corresponding NumPy
  ufunc calls over those slices, and a last-use pass over the translator's
  statements lets each full-box float64 result overwrite a buffer that just
  died (``np.add(a, b, out=c)`` rounds exactly as ``a + b``), so a sweep
  allocates O(1) temporaries instead of one per op;
* ``memref.store`` becomes one sliced assignment per sweep;
* arrays that are congruent at call time take a second rendering of the same
  statements, in which every slice is 1-D and contiguous (the *flat* body,
  see :class:`CompiledKernel`).

A :class:`CompiledKernel` is built *translated* and is *materialised* —
rendered and passed to :func:`compile`/``exec`` — when an interpreter first
looks it up to run it or something reads ``kernel.source``.  Because a cached
kernel may be reused for a *different* op instance with the same structure,
it references its inputs through **external paths** (operand positions within
the op) which :meth:`KernelCompiler.kernel_for` resolves against the concrete
op, rather than through SSA values captured at compile time.

Correctness guards and the interpreter oracle
=============================================

Vectorising a sequential loop nest is only sound when no iteration observes a
write performed by another iteration.  Compilation *statically* rejects
unsupported ops (``scf.if``, ``stencil.dyn_access``, calls, nested regions)
and non-affine indexing; in addition every invocation *dynamically* verifies,
against the actual runtime values, that

* all loop steps are 1 and all accesses stay in bounds (NumPy's negative
  index wrap-around would silently diverge from the scalar semantics),
* every array has the element type the IR promises (``out=`` reuse casts
  where a fresh allocation would have promoted), and
* no stored-to buffer shares memory with any loaded-from buffer
  (``np.may_share_memory``) — e.g. a true in-place Gauss–Seidel nest refuses
  to vectorise and falls back.

When a kernel cannot be built or a guard fails, the caller falls back to the
scalar interpreter, which therefore remains the semantic *oracle*: execution
mode ``"crosscheck"`` (see :mod:`repro.compiler`) runs both paths on every
sweep and raises if their results diverge beyond ``np.allclose``.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dialects import fir, scf, stencil
from ..ir.operation import Operation
from ..ir.ssa import SSAValue
from ..ir.types import FloatType, IndexType, IntegerType, MemRefType
from .memory import MemoryBuffer, numpy_dtype_for

#: Execution modes accepted by the backend options / Interpreter.
EXECUTION_MODES = ("interpret", "vectorize", "crosscheck")


class KernelUnsupported(Exception):
    """Raised during compilation when an op/indexing pattern cannot be
    expressed as whole-array NumPy slices; the caller falls back to the
    scalar interpreter."""


# ---------------------------------------------------------------------------
# Structural hashing
# ---------------------------------------------------------------------------


#: Attributes that carry metadata about an op rather than defining its
#: semantics; excluded from the structural hash so tagging an op (e.g. with
#: stencil.vectorizable after analysis) does not invalidate its cache entry.
#: The omp schedule clause is an execution *policy* — two wsloops differing
#: only in schedule compute the same function and share one kernel; the
#: interpreter reads the policy off the op at dispatch time.  The gpu stream
#: assignment and prefetch tags are likewise runtime placement policy.
_METADATA_ATTRS = frozenset({"stencil.vectorizable", "omp.schedule",
                             "omp.chunk_size", "gpu.stream", "gpu.prefetch",
                             "schedule.tile"})


def structural_hash(op: Operation) -> str:
    """A hash of the operation's *structure*: names, semantic attributes,
    types and internal dataflow.  External SSA values are numbered in
    first-use order, so two structurally identical ops — even from different
    modules — map to the same digest."""
    parts: List[str] = []
    tokens: Dict[int, str] = {}

    def token(value: SSAValue) -> str:
        tok = tokens.get(id(value))
        if tok is None:
            tok = f"x{len(tokens)}"
            tokens[id(value)] = tok
        return tok

    def visit(current: Operation) -> None:
        parts.append(current.name)
        for attr_name in sorted(current.attributes):
            if attr_name in _METADATA_ATTRS:
                continue
            parts.append(f"{attr_name}={current.attributes[attr_name].print()}")
        parts.append("(" + ",".join(token(o) for o in current.operands) + ")")
        for result in current.results:
            parts.append("->" + result.type.print())
            token(result)
        for region in current.regions:
            for block in region.blocks:
                parts.append("^(" + ",".join(a.type.print() for a in block.args) + ")")
                for arg in block.args:
                    token(arg)
                for inner in block.ops:
                    visit(inner)
                parts.append("$")

    visit(op)
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


# ---------------------------------------------------------------------------
# External paths: how a kernel finds its inputs on any structurally
# identical op instance
# ---------------------------------------------------------------------------

#: ("root", operand_index)           — operand of the compiled op itself
#: ("for", dim, which)               — (lower|upper|step)[which] of the inner
#:                                     scf.for at nest depth ``dim``
#: ("body", op_index, operand_index) — operand of the innermost body's op
ExternalPath = Tuple


# ---------------------------------------------------------------------------
# Codegen symbols
# ---------------------------------------------------------------------------


class _Affine:
    """A value of the form ``iv[dim] + offset`` (unit-coefficient affine)."""

    __slots__ = ("dim", "offset")

    def __init__(self, dim: int, offset: int):
        self.dim = dim
        self.offset = offset


class _Const:
    """A compile-time constant (from ``arith.constant`` inside the body)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Expr:
    """A generated expression: a local variable of the kernel, or inline code
    for a constant or a materialised induction variable.

    ``is_array`` distinguishes arrays from runtime scalars (which broadcast
    under NumPy's rules); ``full`` marks arrays whose shape is exactly the
    sweep box.  ``owned`` marks an array the kernel itself allocated — never
    a view of an external — which the liveness pass ``del``s at its last use
    or, when ``reusable`` (a full-box float64 ufunc result), donates to the
    ``out=`` free-list instead.
    """

    __slots__ = ("var", "is_array", "full", "owned", "reusable")

    def __init__(self, var: str, is_array: bool, full: bool = False,
                 owned: bool = False, reusable: bool = False):
        self.var = var
        self.is_array = is_array
        self.full = full
        self.owned = owned
        self.reusable = reusable


#: Element-wise ops -> Python/NumPy expression templates over their operands.
#: Float ufuncs are spelled as calls (``np.add(a, b)`` rounds exactly as
#: ``a + b``) with an ``{out}`` hole the liveness pass fills with a dead
#: buffer; templates without the hole always allocate their result.
_TEMPLATES = {
    "arith.addf": "np.add({0}, {1}{out})",
    "arith.subf": "np.subtract({0}, {1}{out})",
    "arith.mulf": "np.multiply({0}, {1}{out})",
    "arith.divf": "np.divide({0}, {1}{out})",
    "arith.addi": "({0} + {1})",
    "arith.subi": "({0} - {1})",
    "arith.muli": "({0} * {1})",
    "arith.maximumf": "np.maximum({0}, {1}{out})",
    "arith.minimumf": "np.minimum({0}, {1}{out})",
    "arith.maxsi": "np.maximum({0}, {1})",
    "arith.minsi": "np.minimum({0}, {1})",
    "arith.andi": "np.logical_and({0}, {1})",
    "arith.ori": "np.logical_or({0}, {1})",
    "arith.xori": "np.not_equal({0}, {1})",
    "math.powf": "np.power({0}, {1}{out})",
    "arith.divsi": "_divsi({0}, {1})",
    "arith.remsi": "_remsi({0}, {1})",
    "arith.select": "np.where({0}, {1}, {2})",
    "arith.negf": "np.negative({0}{out})",
    "math.sqrt": "np.sqrt({0}{out})",
    "math.absf": "np.abs({0}{out})",
    "math.sin": "np.sin({0}{out})",
    "math.cos": "np.cos({0}{out})",
    "math.tan": "np.tan({0}{out})",
    "math.tanh": "np.tanh({0}{out})",
    "math.exp": "np.exp({0}{out})",
    "math.log": "np.log({0}{out})",
    "math.log10": "np.log10({0}{out})",
}

_CMP_TEMPLATES = {
    "oeq": "np.equal", "one": "np.not_equal", "olt": "np.less",
    "ole": "np.less_equal", "ogt": "np.greater", "oge": "np.greater_equal",
    "eq": "np.equal", "ne": "np.not_equal", "slt": "np.less",
    "sle": "np.less_equal", "sgt": "np.greater", "sge": "np.greater_equal",
}

_CAST_OPS = ("arith.index_cast", "arith.sitofp", "arith.fptosi",
             "arith.extf", "arith.truncf")


def _divsi(lhs, rhs):
    """Fortran/C integer division: truncate toward zero (matches the
    interpreter's ``arith.divsi`` handler)."""
    return np.trunc(np.divide(lhs, rhs)).astype(np.int64)


def _remsi(lhs, rhs):
    quotient = np.trunc(np.divide(lhs, rhs)).astype(np.int64)
    return np.asarray(lhs) - quotient * np.asarray(rhs)


def _scalar(value):
    """Collapse runtime external values to something NumPy can broadcast."""
    if isinstance(value, MemoryBuffer):
        return value.data[()] if value.is_scalar else value.data
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value[()]
    return value


def _box(span: np.ndarray, shape, strides) -> np.ndarray:
    """The box's lattice points within a flat span, as an N-D strided view
    (``strides`` in elements): the lanes between rows are not in it."""
    return np.ndarray(shape, span.dtype, span, 0,
                      [stride * span.itemsize for stride in strides])


_NAMESPACE = {"np": np, "_divsi": _divsi, "_remsi": _remsi, "_scalar": _scalar,
              "_box": _box}

#: The flat body runs boxes whose span — first to last lattice point in memory
#: — is at most this many lanes per point; past it most lanes are waste.
_FLAT_SPAN_PER_POINT = 2


# ---------------------------------------------------------------------------
# Compiled kernel objects
# ---------------------------------------------------------------------------


class CompiledKernel:
    """A compiled sweep: a Python function over NumPy arrays plus the access
    metadata needed for the runtime bounds/alias guards.

    Built from a finished :class:`_BodyTranslator`, whose statements
    :meth:`materialise` renders (liveness pass included) into ``source`` /
    ``flat_source`` / ``allocations`` / ``arrays_per_point``, with ``fn`` the
    function that runs one box through either.  ``loads``
    and ``stores`` list ``(external_slot, ((dim, offset), ...))`` pairs — one per
    *distinct* load window: slot indexes the external vector, and each
    ``(dim, offset)`` describes the affine index ``iv[dim] + offset`` used for
    the corresponding array axis.  ``external_paths`` locate the externals on
    any structurally identical op (see module docstring); ``bound_slots``
    names, for loop-nest kernels, the (lower, upper, step) slot triple of
    each dimension.

    One translation has two renderings, chosen per call by :meth:`flat_plan`.
    The *windowed* body slices an N-D window per access and serves any arrays
    the guards admit.  The *flat* body serves congruent arrays — contiguous,
    one shape, one set of strides: each access is the 1-D slice of the
    flattened array from the box's first to its last lattice point, shifted
    by the access's offset in elements, so every ufunc sweeps contiguous
    memory; the lanes that wrap across rows are computed and left out of the
    :func:`_box` view that is stored or returned, and the lanes kept see the
    operands they always did, hence the same bits.
    """

    def __init__(
        self,
        name: str,
        translator: "_BodyTranslator",
        prologue: Sequence[str] = (),
        bound_slots: Sequence[Tuple[int, int, int]] = (),
        result_is_array: Sequence[bool] = (),
    ):
        self.name = name
        self._pending: Optional[Tuple] = (tuple(prologue), translator)
        self._flat: Optional[Callable] = None
        self.rank = translator.rank
        self.loads = tuple(translator.windows)
        self.stores = tuple(translator.stores)
        self.external_paths = tuple(translator.external_paths)
        self.bound_slots = tuple(bound_slots)
        #: Element dtype the IR promises for each loaded/stored slot; the
        #: guards hold the runtime arrays to it, since ``out=`` reuse would
        #: silently cast where a fresh allocation would have promoted.
        self.slot_dtypes = translator.slot_dtypes
        #: Why no call can take the flat body (None: congruent arrays can).
        self.flat_refusal: Optional[str] = translator.flat_refusal()
        #: For apply kernels: which returned values are whole-domain arrays
        #: (only those can be delivered per box by ``run_boxes``).
        self.result_is_array = tuple(result_is_array)
        #: Stable display name (op name + structural-hash prefix), set by
        #: KernelCompiler.kernel_for; keys the per-kernel runtime statistics.
        self.label = ""
        #: Whether the sweep may be split into boxes that run concurrently.
        #: Store kernels need every store to index every iteration dimension
        #: (boxes that partition the domain then write disjoint regions);
        #: pure kernels need every returned value to be a whole-domain
        #: array.  The interpreter clears it when a per-box result shape
        #: refuses delivery — a structural property, so the refusal
        #: holds for every later sweep of this (possibly shared) kernel.
        if self.stores:
            self.tileable = all(len(axes) == self.rank for _, axes in self.stores)
        else:
            self.tileable = bool(self.result_is_array) and all(self.result_is_array)

    def materialise(self) -> None:
        """Render both bodies and ``compile()`` the windowed one, once; the
        flat one waits for the first call that chooses it.  Racing first
        callers each build an equal kernel; the translation is let go last,
        so whoever finds it gone finds a whole kernel."""
        pending = self._pending
        if pending is None:
            return
        prologue, translator = pending

        def render(flat: bool, signature: str) -> str:
            lines, self.allocations = translator.render(flat)
            body = "\n".join("    " + line for line in prologue + tuple(lines)) or "    pass"
            return f"def {self.name}({signature}):\n{body}\n"

        self.flat_source = None if self.flat_refusal is not None else \
            render(True, "ext, lb, ub, s, lo, n, shape")
        self.source = render(False, "ext, lb, ub")
        #: Arrays one call allocates (its other results land in dead buffers)
        #: and, with the distinct arrays it loads and stores, the arrays it
        #: touches per point: what the default cache-box plan sizes boxes by.
        self.arrays_per_point = self.allocations + len(self.slot_dtypes)
        self._windowed = self._compile(self.source)
        self.fn: Callable = self._run
        self._pending = None

    def _compile(self, source: str) -> Callable:
        namespace = dict(_NAMESPACE)
        exec(compile(source, f"<{self.name}>", "exec"), namespace)
        return namespace[self.name]

    def __getattr__(self, name: str):
        if name in ("fn", "source", "flat_source", "allocations",
                    "arrays_per_point"):
            self.materialise()
            return self.__dict__[name]
        raise AttributeError(name)

    def _run(self, ext, lb, ub, chosen: Optional[List[str]] = None):
        """One box through the body :meth:`flat_plan` chooses, appending
        "flat" or the reason for the windowed one to ``chosen``."""
        plan = self.flat_plan(ext, lb, ub)
        flat = not isinstance(plan, str)
        if chosen is not None:
            chosen.append("flat" if flat else plan)
        if not flat:
            return self._windowed(ext, lb, ub)
        if self._flat is None:
            self._flat = self._compile(self.flat_source)
        # What the dropped lanes overflow or divide by is nobody's data.
        with np.errstate(all="ignore"):
            return self._flat(ext, lb, ub, *plan)

    def flat_plan(self, ext: Sequence[object], lb: Sequence[int],
                  ub: Sequence[int]):
        """The flat body's arguments for one box — the arrays' strides in
        elements, the first lattice point's position, the span to the last,
        the box's shape — or, as a string, why the box runs windowed."""
        if self.flat_refusal is not None:
            return self.flat_refusal
        first = None
        for slot in self.slot_dtypes:
            array = self._array_of(ext[slot])
            if first is None:
                first = array
                if not (array.flags.f_contiguous or array.flags.c_contiguous):
                    return "strided array"
            elif array.shape != first.shape:
                return "differing shapes"
            elif array.strides != first.strides:
                return "mixed memory order"
        s, shape, lo, n, points = [], [], 0, 1, 1
        for l, u, stride in zip(lb, ub, first.strides):
            stride //= first.itemsize
            s.append(stride)
            shape.append(u - l)
            lo += l * stride
            n += (u - l - 1) * stride
            points *= max(u - l, 0)
        if not 0 < n <= _FLAT_SPAN_PER_POINT * points:
            return "sparse box"
        return s, lo, n, shape

    # -- runtime guards ----------------------------------------------------

    def guards_pass(self, externals: Sequence[object], lowers: Sequence[int],
                    uppers: Sequence[int], steps: Sequence[int]) -> bool:
        """Check unit steps, in-bounds slices, and load/store aliasing against
        the actual runtime values.  Returning False sends the caller to the
        scalar interpreter."""
        if any(s != 1 for s in steps):
            return False
        for slot, axes in self.loads + self.stores:
            array = self._array_of(externals[slot])
            if array is None or array.ndim != len(axes) or \
                    array.dtype != self.slot_dtypes[slot]:
                return False
            for axis, (dim, offset) in enumerate(axes):
                if lowers[dim] + offset < 0 or uppers[dim] + offset > array.shape[axis]:
                    return False
        store_arrays = [self._array_of(externals[slot]) for slot, _ in self.stores]
        load_arrays = [self._array_of(externals[slot]) for slot, _ in self.loads]
        for stored in store_arrays:
            for loaded in load_arrays:
                if stored is not None and loaded is not None and \
                        np.may_share_memory(stored, loaded):
                    return False
        # Two stores into overlapping storage interleave per point under
        # scalar semantics but sweep-at-a-time here (`a[i]=x; a[i+1]=y` ends
        # [x,y,y,…] scalar vs [x,x,…,y] vectorized).  The only safe aliasing
        # pair is the *same* array written through the *same* index map —
        # there the last store wins at every point in both orders.
        for i, (_, axes_i) in enumerate(self.stores):
            for j in range(i + 1, len(self.stores)):
                first, second = store_arrays[i], store_arrays[j]
                if first is None or second is None:
                    return False
                if first is second and axes_i == self.stores[j][1]:
                    continue
                if np.may_share_memory(first, second):
                    return False
        return True

    def apply_guards_pass(self, externals: Sequence[object], lb: Sequence[int],
                          ub: Sequence[int]) -> bool:
        """Bounds guard for ``stencil.apply`` kernels: every access window
        ``[lb+off-origin, ub+off-origin)`` must fall inside its temp's data."""
        for slot, axes in self.loads:
            temp = externals[slot]
            array = getattr(temp, "data", None)
            origin = getattr(temp, "origin", None)
            if not isinstance(array, np.ndarray) or origin is None or \
                    array.ndim != len(axes) or \
                    array.dtype != self.slot_dtypes[slot]:
                return False
            for axis, (dim, offset) in enumerate(axes):
                low = lb[dim] + offset - origin[dim]
                high = ub[dim] + offset - origin[dim]
                if low < 0 or high > array.shape[axis]:
                    return False
        return True

    def dim_strides(self, externals: Sequence[object]) -> Optional[List[int]]:
        """Byte stride of every iteration dimension in the first array this
        kernel sweeps through a full-rank window (None without one).  Read
        off the runtime array, so Fortran- and C-ordered data are each seen
        as they are."""
        for slot, axes in self.loads + self.stores:
            if len(axes) == self.rank:
                strides = [0] * self.rank
                for (dim, _), stride in zip(axes, self._array_of(externals[slot]).strides):
                    strides[dim] = stride
                return strides
        return None

    @staticmethod
    def _array_of(value) -> Optional[np.ndarray]:
        if isinstance(value, MemoryBuffer):
            return value.data
        if isinstance(value, np.ndarray):
            return value
        data = getattr(value, "data", None)  # FieldValue / TempValue
        return data if isinstance(data, np.ndarray) else None

    def store_targets(self, externals: Sequence[object]) -> List[np.ndarray]:
        """The distinct arrays this kernel writes (for crosscheck snapshots)."""
        targets: List[np.ndarray] = []
        for slot, _ in self.stores:
            array = self._array_of(externals[slot])
            if array is not None and not any(array is t for t in targets):
                targets.append(array)
        return targets


class BoundKernel:
    """A compiled kernel bound to one op instance: the kernel plus the SSA
    values (resolved from the kernel's external paths) to read per sweep."""

    __slots__ = ("kernel", "external_values")

    def __init__(self, kernel: CompiledKernel, external_values: List[SSAValue]):
        self.kernel = kernel
        self.external_values = external_values


# ---------------------------------------------------------------------------
# Codegen core shared by the nest and apply translators
# ---------------------------------------------------------------------------


def _is_reference_type(value: SSAValue) -> bool:
    t = value.type
    return (
        isinstance(t, (MemRefType, stencil.FieldType, stencil.TempType))
        or fir.is_reference_like(t)
    )


class _BodyTranslator:
    """Translates one straight-line block of element-wise ops into Python
    statements over whole-array slices, then renders them with a last-use
    pass (:meth:`render`) so the kernel runs in O(1) temporaries."""

    def __init__(self, rank: int):
        self.rank = rank
        #: (result or None, template over the uses' code, uses) per statement;
        #: loads and stores carry a (windowed, flat) pair of templates
        self.stmts: List[Tuple[Optional[_Expr], object, Tuple[_Expr, ...]]] = []
        self.values: Dict[int, object] = {}  # id(SSAValue) -> _Expr/_Affine/_Const
        self.external_paths: List[ExternalPath] = []
        self.external_slots: Dict[int, int] = {}
        #: each distinct load window (slot, axes) -> the one view bound to it
        self.windows: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], _Expr] = {}
        #: loaded slot -> (code of its array, code of its origin or None)
        self.bases: Dict[int, Tuple[str, Optional[str]]] = {}
        #: an induction value is used as a number somewhere in the body
        self.index_as_data = False
        self.stores: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []
        self.slot_dtypes: Dict[int, np.dtype] = {}
        #: values the kernel returns (apply kernels): live to the end
        self.returned: List[_Expr] = []
        self._counter = 0
        #: set by the driver before translating each body op, so scalar
        #: externals discovered mid-expression can be given a path
        self.current_body_op: Optional[Tuple[Operation, int]] = None

    # -- helpers -----------------------------------------------------------

    def fresh(self) -> str:
        self._counter += 1
        return f"t{self._counter}"

    def external_slot(self, value: SSAValue, path: ExternalPath) -> int:
        slot = self.external_slots.get(id(value))
        if slot is None:
            slot = len(self.external_paths)
            self.external_slots[id(value)] = slot
            self.external_paths.append(path)
        return slot

    def _path_of_operand(self, value: SSAValue) -> ExternalPath:
        if self.current_body_op is None:
            raise KernelUnsupported("external value outside of a body op")
        body_op, op_index = self.current_body_op
        for j, operand in enumerate(body_op.operands):
            if operand is value:
                return ("body", op_index, j)
        raise KernelUnsupported("cannot locate external value on its use")

    def bind_external_scalar(self, value: SSAValue) -> _Expr:
        """Materialise an external scalar into a local variable."""
        if _is_reference_type(value):
            raise KernelUnsupported("reference-typed value used as a scalar")
        slot = self.external_slot(value, self._path_of_operand(value))
        expr = _Expr(f"e{slot}", is_array=False)
        self.values[id(value)] = expr
        self.stmts.append((expr, f"_scalar(ext[{slot}])", ()))
        return expr

    def operand(self, value: SSAValue) -> _Expr:
        """Render an SSA value as an expression usable in a statement."""
        sym = self.values.get(id(value))
        if sym is None:
            sym = self.bind_external_scalar(value)
        if isinstance(sym, _Expr):
            return sym
        if isinstance(sym, _Const):
            return _Expr(repr(sym.value), is_array=False)
        if isinstance(sym, _Affine):
            # An induction variable used as a *number* (not an index):
            # ``arange(lb+c, ub+c)`` broadcast along its dimension, inline.
            self.index_as_data = True
            shape = ", ".join("-1" if d == sym.dim else "1" for d in range(self.rank))
            return _Expr(f"np.arange(lb[{sym.dim}] + {sym.offset}, "
                         f"ub[{sym.dim}] + {sym.offset}).reshape(({shape}))",
                         is_array=True)
        raise KernelUnsupported(f"cannot render value {value!r}")

    def bind(self, result: SSAValue, template: str,
             uses: Sequence[_Expr]) -> _Expr:
        """Append ``t = template(uses)`` and make it ``result``'s value."""
        is_array = any(u.is_array for u in uses)
        full = any(u.full for u in uses)
        is_f64 = isinstance(result.type, FloatType) and result.type.width == 64
        expr = _Expr(self.fresh(), is_array, full, owned=is_array,
                     reusable=full and is_f64 and "{out}" in template)
        self.stmts.append((expr, template, tuple(uses)))
        self.values[id(result)] = expr
        return expr

    def affine_indices(self, index_values: Sequence[SSAValue]) -> Tuple[Tuple[int, int], ...]:
        """Resolve load/store indices to per-axis (dim, offset) descriptors.
        Each axis must use a distinct induction variable."""
        axes: List[Tuple[int, int]] = []
        for value in index_values:
            sym = self.values.get(id(value))
            if isinstance(sym, _Affine):
                axes.append((sym.dim, sym.offset))
            else:
                raise KernelUnsupported("non-affine memory index")
        used_dims = [d for d, _ in axes]
        if len(set(used_dims)) != len(used_dims):
            raise KernelUnsupported("induction variable reused across axes")
        return tuple(axes)

    def emit_load(self, result: SSAValue, slot: int,
                  axes: Sequence[Tuple[int, int]], base: Optional[str] = None,
                  origin: Optional[str] = None) -> None:
        """Record an affine load; each distinct window of a slot is sliced
        once per call and shared by every load of it (the guards keep loaded
        and stored arrays disjoint, so a view bound early reads what a later
        one would)."""
        key = (slot, tuple(axes))
        expr = self.windows.get(key)
        if expr is None:
            expr = self.windows[key] = _Expr(self.fresh(), is_array=True,
                                             full=len(axes) == self.rank)
            self.slot_dtypes[slot] = numpy_dtype_for(result.type)
            base = base or f"ext[{slot}].data"
            self.bases[slot] = (base, origin)
            start = " + ".join([f"b{slot}" if origin else "lo"] + [
                f"{offset}*s[{dim}]" for dim, offset in axes if offset])
            self.stmts.append((expr, (self.slice_code(base, axes, origin),
                                      f"f{slot}[{start}:{start} + n]"), ()))
        self.values[id(result)] = expr

    def emit_store(self, value: SSAValue, slot: int,
                   axes: Sequence[Tuple[int, int]]) -> None:
        """Record an affine store and emit its sliced assignment.

        The assignment target must stay a plain slice (a transposed view is
        not assignable syntax); when the store permutes the induction
        variables, transpose the *value* from iv-order into the target's
        axis order instead.
        """
        self.stores.append((slot, tuple(axes)))
        self.slot_dtypes[slot] = numpy_dtype_for(value.type)
        stored = self.operand(value)
        target = self.slice_code(f"ext[{slot}].data", axes, align=False)
        order = [dim for dim, _ in axes]
        code = "{0}"
        if order != sorted(order) and stored.is_array:
            code = f"np.transpose({{0}}, {tuple(order)})"
        boxed = "_box({0}, shape, s)" if stored.is_array else "{0}"
        self.stmts.append((None, (f"{target} = {code}", f"{target} = {boxed}"),
                           (stored,)))

    def slice_code(self, base: str, axes: Sequence[Tuple[int, int]],
                   origin: Optional[str] = None, align: bool = True) -> str:
        """A whole-sweep slice of ``base`` (whose index space starts at
        ``origin``, when given); with ``align``, transposed/expanded so its
        axes line up with induction-variable order for broadcasting."""
        def bound(which: str, dim: int, offset: int) -> str:
            return f"{which}[{dim}]" + (f" + {offset}" if offset else "") + \
                (f" - {origin}[{dim}]" if origin else "")

        code = f"{base}[" + ", ".join(
            f"{bound('lb', dim, offset)}:{bound('ub', dim, offset)}"
            for dim, offset in axes) + "]"
        if not align:
            return code
        order = [dim for dim, _ in axes]
        if order != sorted(order):
            perm = tuple(int(i) for i in np.argsort(order))
            code = f"np.transpose({code}, {perm})"
        for dim in range(self.rank):
            if dim not in order:
                code = f"np.expand_dims({code}, {dim})"
        return code

    # -- op translation ----------------------------------------------------

    def translate_op(self, op: Operation) -> None:
        name = op.name
        if name == "arith.constant":
            attr = op.get_attr("value")
            if isinstance(getattr(attr, "type", None), (IntegerType, IndexType)):
                self.values[id(op.results[0])] = _Const(int(attr.value))
            elif isinstance(getattr(attr, "type", None), FloatType):
                self.values[id(op.results[0])] = _Const(float(attr.value))
            else:
                raise KernelUnsupported("constant of unsupported type")
            return

        if name in ("arith.addi", "arith.subi"):
            # Index arithmetic on induction variables stays symbolic so it
            # folds into slice bounds; everything else drops to the
            # element-wise path below.
            lhs = self.values.get(id(op.operands[0]))
            rhs = self.values.get(id(op.operands[1]))
            sign = 1 if name == "arith.addi" else -1
            if isinstance(lhs, _Affine) and isinstance(rhs, _Const):
                self.values[id(op.results[0])] = _Affine(lhs.dim, lhs.offset + sign * rhs.value)
                return
            if name == "arith.addi" and isinstance(lhs, _Const) and isinstance(rhs, _Affine):
                self.values[id(op.results[0])] = _Affine(rhs.dim, rhs.offset + lhs.value)
                return
            if isinstance(lhs, _Const) and isinstance(rhs, _Const):
                self.values[id(op.results[0])] = _Const(lhs.value + sign * rhs.value)
                return

        if name in _CAST_OPS:
            source = self.values.get(id(op.operands[0]))
            if isinstance(source, _Affine) and name == "arith.index_cast":
                self.values[id(op.results[0])] = source
                return
            value = self.operand(op.operands[0])
            dtype = numpy_dtype_for(op.results[0].type).name
            self.bind(op.results[0], f"{{0}}.astype('{dtype}')" if value.is_array
                      else f"np.dtype('{dtype}').type({{0}})", [value])
            return

        template = _TEMPLATES.get(name)
        if name in ("arith.cmpf", "arith.cmpi"):
            pred = op.get_attr("predicate").data  # type: ignore[union-attr]
            if pred not in _CMP_TEMPLATES:
                raise KernelUnsupported(f"comparison predicate '{pred}'")
            template = _CMP_TEMPLATES[pred] + "({0}, {1})"
        if template is not None:
            self.bind(op.results[0], template,
                      [self.operand(value) for value in op.operands])
            return

        if name == "math.fma":
            # Multiply, then add — two roundings, in that order, exactly as
            # the scalar interpreter's ``a * b + c``.
            a, b, c = (self.operand(value) for value in op.operands)
            product = self.bind(op.results[0], _TEMPLATES["arith.mulf"], [a, b])
            self.bind(op.results[0], _TEMPLATES["arith.addf"], [product, c])
            return

        raise KernelUnsupported(f"operation '{name}' is not vectorizable")

    def translate_memory_body(self, block, slot_of: Callable) -> None:
        """Translate the innermost block of a nest or an outlined kernel:
        element-wise ops between ``memref.load``s and at least one
        ``memref.store``, ``slot_of(memref, op_index, operand_index)``
        naming the external slot of each memref."""
        for op_index, body_op in enumerate(block.ops):
            self.current_body_op = (body_op, op_index)
            name = body_op.name
            if name in ("scf.yield", "omp.yield"):
                if body_op.operands:
                    raise KernelUnsupported("body yields values")
            elif name == "memref.load":
                self.emit_load(body_op.results[0],
                               slot_of(body_op.operands[0], op_index, 0),
                               self.affine_indices(body_op.operands[1:]))
            elif name == "memref.store":
                axes = self.affine_indices(body_op.operands[2:])
                if len(axes) != self.rank:
                    raise KernelUnsupported("store does not cover every dimension")
                self.emit_store(body_op.operands[0],
                                slot_of(body_op.operands[1], op_index, 1), axes)
            else:
                self.translate_op(body_op)
        if not self.stores:
            raise KernelUnsupported("body performs no stores")

    # -- liveness and rendering --------------------------------------------

    def flat_refusal(self) -> Optional[str]:
        """Why these statements have no flat rendering (None: they have one).
        A lane of a flat span is one position in *every* array: each access
        indexes all dimensions in order, no value depends on where a lane
        is, all elements are one size."""
        for _, axes in list(self.windows) + self.stores:
            if [dim for dim, _ in axes] != list(range(self.rank)):
                return "lower-rank operand" if len(axes) < self.rank \
                    else "permuted access"
        if self.index_as_data:
            return "induction value as data"
        if len(set(self.slot_dtypes.values())) != 1:
            return "dtype mix" if self.slot_dtypes else "no array operand"
        return None

    def render(self, flat: bool = False) -> Tuple[List[str], int]:
        """The statements as source lines — the windowed or the flat body,
        see :class:`CompiledKernel` — after a last-use pass over them, and
        how many arrays those lines allocate per call.

        A reusable result (see :class:`_Expr`) is computed ``out=`` a buffer
        that died at or before its statement — one of its own operands, else
        the free-list — and allocates only when there is none; every other
        owned array is ``del``'d right after its last use.  Views, scalars,
        inline code and values still to be returned or stored are never
        written: they are not owned, or not dead.
        """
        last_use: Dict[_Expr, int] = {}
        for index, (_, _, uses) in enumerate(self.stmts):
            for use in uses:
                last_use[use] = index
        last_use.update((expr, len(self.stmts)) for expr in self.returned)
        allocations = 0
        lines: List[str] = []
        free: List[_Expr] = []
        if flat:
            # Each loaded array flattened in memory order, and the position
            # in it of the box's first lattice point.
            for slot, (base, origin) in self.bases.items():
                lines.append(f"f{slot} = {base}.ravel('K')")
                if origin:
                    lines.append(f"b{slot} = lo - " + " - ".join(
                        f"{origin}[{dim}]*s[{dim}]" for dim in range(self.rank)))

        for index, (result, template, uses) in enumerate(self.stmts):
            if isinstance(template, tuple):
                template = template[flat]
            if not uses:  # a window or scalar binding: nothing to format or free
                lines.append(f"{result.var} = {template}")
                continue
            dying = [use for use in dict.fromkeys(uses)
                     if use.owned and last_use[use] == index]
            out = ""
            if result is not None and result.owned:
                donor = None
                if result.reusable:
                    donor = next((use for use in dying if use.reusable), None)
                    if donor is not None:
                        dying.remove(donor)
                    elif free:
                        donor = free.pop()
                if donor is None:
                    allocations += 1
                else:
                    out = f", out={donor.var}"
            code = template.format(*[use.var for use in uses], out=out)
            lines.append(f"{result.var} = {code}" if result is not None else code)
            free.extend(use for use in dying if use.reusable)
            dead = [use.var for use in dying if not use.reusable]
            if dead:
                lines.append("del " + ", ".join(dead))
        if self.returned:
            lines.append("return [" + ", ".join(
                f"_box({e.var}, shape, s)" if flat and e.is_array else e.var
                for e in self.returned) + "]")
        return lines, allocations


# ---------------------------------------------------------------------------
# Loop-nest compilation (scf.parallel / omp.wsloop with nested scf.for)
# ---------------------------------------------------------------------------


def _nest_structure(op: Operation):
    """Peel a perfect loop nest: returns (bounds, ivs, body) where ``bounds``
    holds per-dimension (lower, upper, step) SSA values, ``ivs`` the
    induction variables, and ``body`` the innermost element-wise block."""
    if op.name not in ("scf.parallel", "omp.wsloop"):
        raise KernelUnsupported(f"'{op.name}' is not a vectorizable loop nest")
    rank = int(op.get_attr("rank").value)  # type: ignore[union-attr]
    bounds = [
        (op.operands[d], op.operands[rank + d], op.operands[2 * rank + d])
        for d in range(rank)
    ]
    block = op.regions[0].block
    ivs = list(block.args)

    while True:
        ops = block.ops
        if not ops:
            raise KernelUnsupported("empty loop body")
        terminator = ops[-1]
        if terminator.name not in ("scf.yield", "omp.yield") or terminator.operands:
            raise KernelUnsupported("loop nest carries values")
        inner = ops[:-1]
        if len(inner) == 1 and isinstance(inner[0], scf.ForOp) and not inner[0].results:
            for_op = inner[0]
            bounds.append((for_op.operands[0], for_op.operands[1], for_op.operands[2]))
            block = for_op.regions[0].block
            ivs.append(block.args[0])
            continue
        return bounds, ivs, block


def compile_loop_nest(op: Operation) -> CompiledKernel:
    """Compile an ``scf.parallel`` / ``omp.wsloop`` (with perfectly nested
    inner ``scf.for`` loops) into a whole-array sweep."""
    bounds, ivs, body = _nest_structure(op)
    rank = len(bounds)
    translator = _BodyTranslator(rank)
    for dim, iv in enumerate(ivs):
        translator.values[id(iv)] = _Affine(dim, 0)

    # Loop bounds must be defined outside the nest; registering them first
    # keeps the external vector layout deterministic.  Outer-loop bounds are
    # root operands; inner scf.for bounds are located through the nest walk,
    # which _resolve_path replays on cache hits.
    bound_slots: List[Tuple[int, int, int]] = []
    base_rank = int(op.get_attr("rank").value)  # type: ignore[union-attr]
    for dim, dim_bounds in enumerate(bounds):
        slots = []
        for which, value in enumerate(dim_bounds):
            if translator.values.get(id(value)) is not None:
                raise KernelUnsupported("loop bound defined inside the nest")
            # Bounds of an inner scf.for are found at runtime by re-peeling
            # the nest (path kind "for").
            path: ExternalPath = ("root", which * base_rank + dim) \
                if dim < base_rank else ("for", dim, which)
            slots.append(translator.external_slot(value, path))
        bound_slots.append(tuple(slots))

    translator.translate_memory_body(
        body, lambda value, op_index, operand_index: translator.external_slot(
            value, ("body", op_index, operand_index)))
    return CompiledKernel("_nest_kernel", translator, bound_slots=bound_slots)


# ---------------------------------------------------------------------------
# stencil.apply compilation
# ---------------------------------------------------------------------------


def compile_apply(op: Operation) -> CompiledKernel:
    """Compile the body region of a ``stencil.apply`` into one function that
    computes every result over the whole ``[lb, ub)`` domain per sweep.

    Externals are exactly the apply operands (``!stencil.temp`` values arrive
    as ``TempValue`` objects; scalars as NumPy scalars).  The kernel returns
    the list of result arrays, which the interpreter wraps into
    ``TempValue``s just as the scalar path does.
    """
    if op.name != "stencil.apply":
        raise KernelUnsupported(f"'{op.name}' is not a stencil.apply")
    block = op.regions[0].block
    rank = len(op.get_attr("lb").as_tuple())  # type: ignore[union-attr]
    translator = _BodyTranslator(rank)
    # Operand order fixes the external layout: slot i <-> operand i, and the
    # body block args are aliases of those slots.
    for i, arg in enumerate(block.args):
        translator.external_slots[id(arg)] = i
        translator.external_paths.append(("root", i))

    returned: List[SSAValue] = []
    accessed_slots: List[int] = []
    for op_index, body_op in enumerate(block.ops):
        translator.current_body_op = (body_op, op_index)
        name = body_op.name
        if name == "stencil.return":
            returned = list(body_op.operands)
            continue
        if name == "stencil.access":
            temp = body_op.operands[0]
            slot = translator.external_slots.get(id(temp))
            if slot is None or slot >= len(block.args):
                raise KernelUnsupported("stencil.access of a non-operand temp")
            offset = body_op.get_attr("offset").as_tuple()  # type: ignore[union-attr]
            if len(offset) != rank:
                raise KernelUnsupported("stencil.access offset rank mismatch")
            if slot not in accessed_slots:
                accessed_slots.append(slot)
            translator.emit_load(body_op.results[0], slot,
                                 tuple(enumerate(offset)),
                                 base=f"arr{slot}", origin=f"org{slot}")
            continue
        if name == "stencil.index":
            dim = int(body_op.get_attr("dim").value)  # type: ignore[union-attr]
            translator.values[id(body_op.results[0])] = _Affine(dim, 0)
            continue
        translator.translate_op(body_op)

    if not returned:
        raise KernelUnsupported("stencil.apply body has no stencil.return")

    # Prologue: unpack each accessed temp's array and origin once per sweep.
    prologue = []
    for slot in sorted(accessed_slots):
        prologue.append(f"arr{slot} = ext[{slot}].data")
        prologue.append(f"org{slot} = ext[{slot}].origin")
    translator.returned = [translator.operand(value) for value in returned]
    return CompiledKernel(
        "_apply_kernel", translator, prologue,
        result_is_array=[expr.is_array for expr in translator.returned],
    )


def apply_is_vectorizable(op: Operation) -> bool:
    """Static analysis used by the transforms layer: can this apply's body be
    compiled to a whole-array kernel?  (Pure IR check — no runtime values.)

    The result — translated kernel or failure — is recorded in the
    process-wide structural cache, so a later ``execution_mode="vectorize"``
    run of the same stencil starts with a cache hit to materialise.
    """
    return KernelCompiler().compile_cached(
        structural_hash(op), lambda: compile_apply(op)) is not None


# ---------------------------------------------------------------------------
# The compiler facade with its structural-hash kernel cache
# ---------------------------------------------------------------------------


#: Process-wide cache shared across interpreter instances: structural hash ->
#: CompiledKernel (or None for ops that failed to compile, _SHARED_REASONS
#: saying why).  Compilation is deterministic and kernels are bound per-op
#: through external paths, so sharing across modules is safe.
_SHARED_CACHE: Dict[str, Optional[CompiledKernel]] = {}
_SHARED_REASONS: Dict[str, str] = {}


class KernelCompiler:
    """Per-interpreter facade over kernel compilation.

    Two cache levels: an identity memo (sweep op -> its :class:`BoundKernel`)
    that makes the per-sweep lookup a single dict probe, and the structural
    cache (process-wide by default) so identical stencils compiled into
    different modules share one kernel.  ``bindings`` is the memo all
    interpreters over one ``LinkTable`` share; it serves and is filled from
    the process-wide structural cache only, so a compiler with a private one
    keeps private bindings.  The counters are always this compiler's own.
    """

    def __init__(self, use_shared_cache: bool = True,
                 bindings: Optional[Dict] = None):
        #: op -> (BoundKernel or None, label, why the op runs scalar or None)
        self._memo: Dict[Operation, Tuple] = \
            bindings if use_shared_cache and bindings is not None else {}
        self._structural, self._reasons = (
            (_SHARED_CACHE, _SHARED_REASONS) if use_shared_cache else ({}, {}))
        #: Counters, why each looked-up op that cannot be vectorized cannot
        #: (``stats["reasons"]``: label -> "ExceptionClass: message") and
        #: ``stats["per_kernel"]``: each kernel label's invocation count and
        #: cumulative wall time (seconds) as recorded around every sweep.
        #: ``stats["renderings"]`` counts the boxes run by body: "flat", or
        #: the reason :meth:`CompiledKernel.flat_plan` gave for the windowed.
        self.stats: Dict[str, object] = {
            "compiled": 0, "cache_hits": 0, "unsupported": 0, "reasons": {},
            "renderings": {}, "per_kernel": {},
        }

    def record_invocation(self, label: str, seconds: float,
                          chosen: Sequence[str] = ()) -> None:
        """Accumulate one sweep's wall time against the kernel's label, and
        the body each of its boxes ran."""
        per_kernel: Dict[str, Dict[str, float]] = self.stats["per_kernel"]  # type: ignore[assignment]
        entry = per_kernel.setdefault(label, {"invocations": 0, "seconds": 0.0})
        entry["invocations"] += 1
        entry["seconds"] += seconds
        renderings: Dict[str, int] = self.stats["renderings"]  # type: ignore[assignment]
        for body in chosen:
            renderings[body] = renderings.get(body, 0) + 1

    def compile_cached(self, key: str,
                       builder: Callable[[], CompiledKernel]) -> Optional[CompiledKernel]:
        """Structural-cache lookup with counted translate-on-miss.  Any
        failure must degrade to scalar interpretation, never crash the run:
        the cache then holds None, and why is kept beside it (a codegen bug
        surfacing as SyntaxError from ``exec``: see :meth:`bound_for`)."""
        if key in self._structural:
            self.stats["cache_hits"] += 1
            return self._structural[key]
        try:
            kernel: Optional[CompiledKernel] = builder()
            self.stats["compiled"] += 1
        except Exception as exc:
            kernel = None
            self.stats["unsupported"] += 1
            self._reasons[key] = f"{type(exc).__name__}: {exc}"
        self._structural[key] = kernel
        return kernel

    def kernel_for(self, op: Operation) -> Optional[BoundKernel]:
        """The compiled kernel bound to ``op``, or None when the op is not
        vectorizable."""
        return self.bound_for(
            op, op, lambda: compile_apply(op) if op.name == "stencil.apply"
            else compile_loop_nest(op))

    def bound_for(self, site: Operation, source: Operation,
                  builder: Callable[[], CompiledKernel]) -> Optional[BoundKernel]:
        """The kernel ``builder`` compiles from ``source`` (cached under its
        structural hash) bound to ``site``'s operands — from the identity memo
        after the first lookup, which also materialises the kernel (a failure
        of either is a counted fallback).  A launch site binds to its
        ``gpu.func`` here, so all kernel kinds share both cache levels."""
        entry = self._memo.get(site)
        if entry is not None:
            self.stats["cache_hits"] += 1
        else:
            key = structural_hash(source)
            sym = source.get_attr_or_none("sym_name")
            label = f"{source.name}{':' + sym.data if sym else ''}@{key[:10]}"
            kernel = self.compile_cached(key, builder)
            bound, reason = None, self._reasons.get(key)
            if kernel is not None:
                kernel.label = kernel.label or label
                try:
                    kernel.materialise()
                    bound = self._bind(site, kernel)
                except Exception as exc:
                    self.stats["unsupported"] += 1
                    reason = f"{type(exc).__name__}: {exc}"
            # setdefault: racing first lookups all leave with one binding.
            entry = self._memo.setdefault(site, (bound, label, reason))
        if entry[2] is not None:
            self.stats["reasons"][entry[1]] = entry[2]
        return entry[0]

    @staticmethod
    def _bind(op: Operation, kernel: CompiledKernel) -> BoundKernel:
        """Resolve the kernel's external paths against this op instance."""
        values: List[SSAValue] = []
        nest = None
        for path in kernel.external_paths:
            if path[0] == "root":
                values.append(op.operands[path[1]])
            elif path[0] == "for":
                if nest is None:
                    nest = _nest_structure(op)
                _, dim, which = path
                values.append(nest[0][dim][which])
            elif op.name == "stencil.apply":
                # An apply body referencing a value from the enclosing
                # function: locate it on the body op that uses it.
                _, op_index, operand_index = path
                values.append(op.regions[0].block.ops[op_index].operands[operand_index])
            else:
                if nest is None:
                    nest = _nest_structure(op)
                _, op_index, operand_index = path
                values.append(nest[2].ops[op_index].operands[operand_index])
        return BoundKernel(kernel, values)


__all__ = [
    "EXECUTION_MODES",
    "KernelUnsupported",
    "CompiledKernel",
    "BoundKernel",
    "KernelCompiler",
    "compile_loop_nest",
    "compile_apply",
    "apply_is_vectorizable",
    "structural_hash",
]
