"""IR interpreter: the scalar reference semantics of every dialect.

Executes modules produced by the frontend and by the lowering pipelines
against numpy-backed memory: FIR (the "Flang only" path) and scf / OpenMP /
GPU / MPI, with event accounting (kernel launches, PCIe transfers, messages)
of what ran.  The stencil dialect never reaches it: every backend lowers
the extracted stencil module to loops over memrefs, so the stencil flow is
judged at the scf level.

In execution mode ``"interpret"`` everything runs op by op here: the oracle.
In ``"vectorize"`` and ``"crosscheck"`` (see
:mod:`repro.runtime.kernel_compiler`) the handlers of the ops that can
vectorize hand :class:`repro.runtime.sweep.Sweep` their scalar runner, its
fallback and its crosscheck oracle.
"""

from __future__ import annotations

import operator
import time as _time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..dialects import fir as fir_dialect
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp, enclosing_func
from ..ir.attributes import FloatAttr, IntegerAttr, StringAttr
from ..ir.operation import Block, Operation
from ..ir.ssa import SSAValue
from ..ir.types import (
    DYNAMIC,
    FloatType,
    IndexType,
    IntegerType,
    MemRefType,
    TypeAttribute,
)
from .gpu_runtime import SimulatedGPU
from .kernel_compiler import EXECUTION_MODES, KernelCompiler
from .memory import ElementRef, InterpreterError, MemoryBuffer, numpy_dtype_for
from .mpi_runtime import CartesianDecomposition, SimulatedCommunicator
from .sweep import Sweep


class Frame:
    """SSA value environment for one function invocation (shared across regions)."""

    def __init__(self):
        self.values: Dict[SSAValue, object] = {}

    def set(self, ssa_value: SSAValue, value: object) -> None:
        self.values[ssa_value] = value

    def get(self, ssa_value: SSAValue) -> object:
        try:
            return self.values[ssa_value]
        except KeyError:
            raise InterpreterError(
                f"use of a value that has not been computed: {ssa_value!r}"
            ) from None


class _ReturnSignal(Exception):
    """Internal control-flow signal carrying func.return operands."""

    def __init__(self, values: List[object]):
        self.values = values


def _as_python(value):
    """Collapse 0-d numpy values to python scalars (for indices/bounds)."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        return value[()]
    return value


class Verdicts(dict):
    """``(judge, op) -> judge(op)``: what a pure function of the IR says of
    one op, judged at first use and kept for every interpreter after."""

    def __missing__(self, key):
        judge, op = key
        verdict = self[key] = judge(op)
        return verdict


class LinkTable:
    """Linked modules and what is a pure function of their (immutable) IR,
    computed once for every interpreter over them: the function index (one
    walk, here), each sweep op's kernel binding (``bindings``, filled by
    :meth:`KernelCompiler.bound_for`), and the ``verdicts`` of the runtime:
    how a ``memref.snapshot`` swaps.  Entries are keyed by
    their op and die with the table's owner — a
    :class:`repro.api.CompiledArtifact`, or the interpreter built over raw
    modules.  Nothing about a run is here.
    """

    def __init__(self, modules: Sequence[ModuleOp]):
        self.modules: List[ModuleOp] = list(modules)
        self.functions: Dict[str, FuncOp] = {}
        self.gpu_kernels: Dict[str, Operation] = {}
        #: Functions whose bodies contain gpu.launch_func ops: the copies
        #: memref.snapshot takes inside one are device scratch.
        self.kernel_launchers: Set[FuncOp] = set()
        self.bindings: Dict[Operation, Tuple] = {}
        self.verdicts = Verdicts()
        for module in self.modules:
            enclosing = None
            for op in module.walk():
                if isinstance(op, FuncOp):
                    enclosing = op
                    if not op.is_declaration:
                        self._define(self.functions, op.sym_name, op)
                elif op.name == "gpu.launch_func":
                    self.kernel_launchers.add(enclosing)
                elif op.name == "gpu.func":
                    name_attr = op.get_attr_or_none("sym_name")
                    if isinstance(name_attr, StringAttr):
                        self._define(self.gpu_kernels, name_attr.data, op)

    def _define(self, table: Dict[str, Operation], name: str, op: Operation) -> None:
        """Two definitions of one symbol are a link error; a declaration
        beside its definition, or one op linked twice, is not."""
        first = table.setdefault(name, op)
        if first is not op:
            homes = [repr(getattr(m.get_attr_or_none("sym_name"), "data", None))
                     for o in (first, op) for m in self.modules if m.is_ancestor_of(o)]
            raise InterpreterError(
                f"symbol '{name}' is defined twice: in modules " + " and ".join(homes))


class Interpreter:
    """Executes functions from one or more linked modules (or the
    :class:`LinkTable` of an artifact that linked them before)."""

    def __init__(
        self,
        modules: Union[ModuleOp, Sequence[ModuleOp], LinkTable],
        gpu: Optional[SimulatedGPU] = None,
        comm: Optional[SimulatedCommunicator] = None,
        rank: int = 0,
        decomposition: Optional[CartesianDecomposition] = None,
        execution_mode: str = "interpret",
        kernel_compiler: Optional[KernelCompiler] = None,
        threads: int = 1,
    ):
        if execution_mode not in EXECUTION_MODES:
            raise InterpreterError(
                f"unknown execution mode '{execution_mode}'; "
                f"expected one of {EXECUTION_MODES}"
            )
        if (isinstance(threads, bool) or not isinstance(threads, int)
                or threads < 1):
            raise InterpreterError(
                f"threads must be an integer >= 1, got {threads!r}")
        link = modules if isinstance(modules, LinkTable) else LinkTable(
            [modules] if isinstance(modules, ModuleOp) else modules)
        self.modules: List[ModuleOp] = link.modules
        self.gpu = gpu
        self.comm = comm
        self.rank = rank
        self.decomposition = decomposition
        #: "interpret" executes everything op by op (the reference oracle);
        #: "vectorize" hands scf.parallel / omp.wsloop / gpu.launch_func
        #: sweeps to ``self.sweep``'s compiled whole-array
        #: kernels; "crosscheck" runs both and raises if they diverge.
        self.execution_mode = execution_mode
        self.kernels = kernel_compiler if kernel_compiler is not None else (
            KernelCompiler(bindings=link.bindings)
            if execution_mode != "interpret" else None
        )
        #: The thread slabs each sweep is cut into (1 = one slab); the
        #: interpreter alone never tiles, so "interpret" mode uses no pool.
        self.threads = threads
        self.stats: Dict[str, float] = {
            "parallel_regions": 0,
            "omp_regions": 0,
            "fir_loop_iterations": 0,
            "kernel_launches": 0,
            "mpi_messages": 0,
            "mpi_bytes": 0,
            "halo_seconds": 0.0,
            "vectorized_sweeps": 0,
            "vectorize_fallbacks": 0,
            "parallel_sweeps": 0,
            "parallel_tiles": 0,
            "parallel_fallbacks": 0,
            "cache_tiles": 0,
            "snapshots_copied": 0,
            "snapshots_elided": 0,
            "snapshots_swapped": 0,
            "snapshots_deferred": 0,
            "gpu_seconds": 0.0,
            "transfer_seconds": 0.0,
            "gpu_launches_vectorized": 0,
            "gpu_launch_fallbacks": 0,
        }
        self._functions = link.functions
        self._gpu_kernels = link.gpu_kernels
        self._kernel_launchers = link.kernel_launchers
        #: Per-invocation device scratch (the copies memref.snapshot takes
        #: inside kernel-launching functions): allocated from the device
        #: pool, released when the function returns.
        self._device_scratch_stack: List[List[MemoryBuffer]] = []
        #: Array writes so far — every handler that stores into an array
        #: counts — so the sweep's buffer swap can tell a spare whose shell
        #: was filled since none is current.
        self.array_writes = 0
        self._gpu_thread_ctx: List[Dict[str, Tuple[int, int, int]]] = []
        self._handlers = self._build_handlers()
        #: What runs the sweeps fast, outside "interpret" mode.
        self.sweep = Sweep(self, link.verdicts) \
            if execution_mode != "interpret" else None

    # ------------------------------------------------------------------
    # Linking / entry points
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> FuncOp:
        if name not in self._functions:
            raise InterpreterError(
                f"undefined function '{name}'; available: {sorted(self._functions)}"
            )
        return self._functions[name]

    def call(self, name: str, *args) -> List[object]:
        """Call a function by name with numpy arrays / python scalars.

        Arrays are passed by reference (mutations are visible to the caller);
        scalars are wrapped in scalar cells, matching Fortran's by-reference
        argument convention.  An array that is not Fortran-contiguous runs as
        a Fortran-ordered copy whose contents are written back afterwards.  A
        read-only array runs as a writable copy; a call that changes that
        copy raises :class:`InterpreterError` instead of losing the results.
        """
        func_op = self.lookup(name)
        inputs = func_op.function_type.inputs
        if len(args) != len(inputs):
            raise InterpreterError(
                f"function '{name}' expects {len(inputs)} arguments, "
                f"got {len(args)}"
            )
        arg_values = [self._wrap_argument(arg, arg_type, f"arg{i}")
                      for i, (arg, arg_type) in enumerate(zip(args, inputs))]
        if self.sweep is None:
            results = self.call_function(func_op, arg_values)
        else:
            results = self.sweep.call(
                arg_values, lambda: self.call_function(func_op, arg_values))
        for position, (arg, value) in enumerate(zip(args, arg_values)):
            if not isinstance(arg, np.ndarray) or value.data is arg:
                continue
            if arg.flags.writeable:
                np.copyto(arg, value.data)
            elif value.data.tobytes(order="F") != arg.tobytes(order="F"):
                raise InterpreterError(
                    f"function '{name}' writes argument {position}, a "
                    f"read-only array; pass a writeable one")
        return results

    def _wrap_argument(self, arg, arg_type: TypeAttribute, label: str):
        if isinstance(arg, (MemoryBuffer, ElementRef)):
            return arg
        declared = arg_type.element_type \
            if fir_dialect.is_reference_like(arg_type) else arg_type
        is_array = isinstance(declared, fir_dialect.SequenceType)
        if isinstance(arg, np.ndarray):
            if is_array:
                wrong = (arg.dtype != numpy_dtype_for(declared.element_type)
                         or arg.ndim != declared.rank
                         or any(extent not in (DYNAMIC, got)
                                for extent, got in zip(declared.shape, arg.shape)))
            else:  # a 0-d array is a scalar cell the caller reads back
                wrong = arg.ndim > 0 and isinstance(
                    declared, (FloatType, IntegerType, IndexType))
            if wrong:
                raise InterpreterError(
                    f"argument {label} is declared {declared.print()}, got "
                    f"an array of shape {arg.shape} and dtype {arg.dtype}")
            if not arg.flags["F_CONTIGUOUS"] or not arg.flags.writeable:
                arg = np.array(arg, order="F")
            return MemoryBuffer.wrap(arg, label=label)
        if isinstance(arg, (int, float, np.integer, np.floating)):
            if is_array:
                raise InterpreterError(
                    f"argument {label} is declared {declared.print()}, got "
                    f"the scalar {arg!r}")
            return MemoryBuffer.for_scalar(declared, arg, label=label)
        raise InterpreterError(f"cannot pass argument of type {type(arg).__name__}")

    def call_function(self, func_op: FuncOp, args: Sequence[object]) -> List[object]:
        entry = func_op.entry_block
        if len(args) != len(entry.args):
            raise InterpreterError(
                f"function '{func_op.sym_name}' expects {len(entry.args)} arguments, "
                f"got {len(args)}"
            )
        frame = Frame()
        for block_arg, value in zip(entry.args, args):
            frame.set(block_arg, value)
        launcher = func_op in self._kernel_launchers
        if launcher:
            self._device_scratch_stack.append([])
        try:
            self.run_block(entry, frame)
        except _ReturnSignal as signal:
            return signal.values
        finally:
            if launcher:
                for scratch in self._device_scratch_stack.pop():
                    self._require_gpu().dealloc(scratch)
        return []

    # ------------------------------------------------------------------
    # Execution core
    # ------------------------------------------------------------------

    def run_block(self, block: Block, frame: Frame) -> List[object]:
        """Execute a block; returns the operand values of its terminator (if the
        terminator is a yield-like operation)."""
        result: List[object] = []
        for op in block.ops:
            result = self.exec_op(op, frame)
        return result

    def exec_op(self, op: Operation, frame: Frame) -> List[object]:
        handler = self._handlers.get(op.name)
        if handler is None:
            raise InterpreterError(f"no interpreter handler for operation '{op.name}'")
        values = handler(op, frame)
        if values is None:
            values = []
        if op.results:
            computed = frame.values
            for res, value in zip(op.results, values):
                computed[res] = value
        return values

    # ------------------------------------------------------------------
    # Handler table
    # ------------------------------------------------------------------

    def _build_handlers(self) -> Dict[str, Callable]:
        h: Dict[str, Callable] = {}

        # builtin / func -----------------------------------------------------
        h["builtin.module"] = lambda op, f: []
        h["builtin.unrealized_conversion_cast"] = lambda op, f: [
            f.get(o) for o in op.operands
        ]
        h["func.return"] = self._exec_func_return
        h["fir.call"] = self._exec_call

        # arith ---------------------------------------------------------------
        h["arith.constant"] = self._exec_constant
        # On numpy scalars an operator runs the ufunc's own scalar loop: the
        # same bits and dtype, without the ~0.6 us of a ufunc call.
        binary = {
            "arith.addf": operator.add,
            "arith.subf": operator.sub,
            "arith.mulf": operator.mul,
            "arith.divf": operator.truediv,
            "arith.maximumf": np.maximum,
            "arith.minimumf": np.minimum,
            "arith.addi": operator.add,
            "arith.subi": operator.sub,
            "arith.muli": operator.mul,
            "arith.maxsi": np.maximum,
            "arith.minsi": np.minimum,
            "arith.andi": np.logical_and,
            "arith.ori": np.logical_or,
            "arith.xori": np.not_equal,
        }
        for name, ufunc in binary.items():
            h[name] = self._make_binary(ufunc)
        h["arith.divsi"] = self._exec_divsi
        h["arith.remsi"] = self._exec_remsi
        h["arith.negf"] = lambda op, f: [np.negative(f.get(op.operands[0]))]
        h["arith.cmpf"] = self._exec_cmpf
        h["arith.cmpi"] = self._exec_cmpi
        h["arith.select"] = lambda op, f: [
            np.where(f.get(op.operands[0]), f.get(op.operands[1]), f.get(op.operands[2]))
        ]
        for cast in ("arith.index_cast", "arith.sitofp", "arith.fptosi",
                     "arith.extf", "arith.truncf"):
            h[cast] = self._exec_numeric_convert

        # math -----------------------------------------------------------------
        unary_math = {
            "math.sqrt": np.sqrt,
            "math.absf": np.abs,
            "math.sin": np.sin,
            "math.cos": np.cos,
            "math.tan": np.tan,
            "math.tanh": np.tanh,
            "math.exp": np.exp,
            "math.log": np.log,
            "math.log10": np.log10,
        }
        for name, ufunc in unary_math.items():
            h[name] = self._make_unary(ufunc)
        h["math.powf"] = self._make_binary(np.power)

        # fir --------------------------------------------------------------------
        h["fir.alloca"] = self._exec_fir_alloca
        h["fir.allocmem"] = self._exec_fir_alloca
        h["fir.freemem"] = lambda op, f: []
        h["fir.declare"] = lambda op, f: [f.get(op.operands[0])]
        h["fir.load"] = self._exec_fir_load
        h["fir.store"] = self._exec_fir_store
        h["fir.coordinate_of"] = self._exec_coordinate_of
        h["fir.do_loop"] = self._exec_fir_do_loop
        h["fir.if"] = self._exec_fir_if
        h["fir.result"] = lambda op, f: [f.get(o) for o in op.operands]
        h["fir.convert"] = self._exec_fir_convert

        # memref ---------------------------------------------------------------------
        h["memref.load"] = self._exec_memref_load
        h["memref.store"] = self._exec_memref_store
        h["memref.snapshot"] = self._exec_memref_snapshot

        # scf ---------------------------------------------------------------------------
        h["scf.for"] = self._exec_scf_for
        h["scf.parallel"] = self._exec_scf_parallel
        h["scf.if"] = self._exec_scf_if
        h["scf.yield"] = lambda op, f: [f.get(o) for o in op.operands]

        # omp ------------------------------------------------------------------------------
        h["omp.parallel"] = self._exec_omp_parallel
        h["omp.wsloop"] = self._run_nest
        h["omp.yield"] = lambda op, f: [f.get(o) for o in op.operands]
        h["omp.terminator"] = lambda op, f: []

        # gpu ----------------------------------------------------------------------------------
        h["gpu.module"] = lambda op, f: []
        h["gpu.alloc"] = self._exec_gpu_alloc
        h["gpu.dealloc"] = self._exec_gpu_dealloc
        h["gpu.memcpy"] = self._exec_gpu_memcpy
        h["gpu.host_register"] = self._exec_gpu_host_register
        h["gpu.launch_func"] = self._exec_gpu_launch_func
        h["gpu.thread_id"] = self._exec_gpu_id("thread_id")
        h["gpu.block_id"] = self._exec_gpu_id("block_id")
        h["gpu.block_dim"] = self._exec_gpu_id("block_dim")
        h["gpu.return"] = lambda op, f: []

        # dmp / mpi -------------------------------------------------------------------------------
        h["dmp.grid"] = self._exec_dmp_grid
        h["dmp.neighbour_rank"] = self._exec_dmp_neighbour_rank
        h["mpi.isend"] = self._exec_mpi_isend
        h["mpi.irecv"] = self._exec_mpi_irecv
        h["mpi.waitall"] = self._exec_mpi_waitall

        return h

    # ------------------------------------------------------------------
    # func / call handlers
    # ------------------------------------------------------------------

    def _exec_func_return(self, op: Operation, frame: Frame):
        raise _ReturnSignal([frame.get(o) for o in op.operands])

    def _exec_call(self, op: Operation, frame: Frame):
        callee_attr = op.get_attr("callee")
        callee = callee_attr.root  # type: ignore[union-attr]
        args = [frame.get(o) for o in op.operands]
        func_op = self.lookup(callee)
        return self.call_function(func_op, args)

    # ------------------------------------------------------------------
    # arith handlers
    # ------------------------------------------------------------------

    def _exec_constant(self, op: Operation, frame: Frame):
        attr = op.get_attr("value")
        if isinstance(attr, FloatAttr):
            dtype = numpy_dtype_for(attr.type)
            return [dtype.type(attr.value)]
        if isinstance(attr, IntegerAttr):
            dtype = numpy_dtype_for(attr.type)
            return [dtype.type(attr.value)]
        raise InterpreterError("arith.constant with unsupported attribute")

    @staticmethod
    def _make_binary(ufunc):
        def handler(op: Operation, frame: Frame):
            return [ufunc(frame.get(op.operands[0]), frame.get(op.operands[1]))]

        return handler

    @staticmethod
    def _make_unary(ufunc):
        def handler(op: Operation, frame: Frame):
            return [ufunc(frame.get(op.operands[0]))]

        return handler

    def _exec_divsi(self, op: Operation, frame: Frame):
        lhs = frame.get(op.operands[0])
        rhs = frame.get(op.operands[1])
        # Fortran/C semantics: integer division truncates toward zero.
        return [np.asarray(np.trunc(np.divide(lhs, rhs))).astype(np.int64)[()]
                if np.ndim(lhs) == 0 and np.ndim(rhs) == 0
                else np.trunc(np.divide(lhs, rhs)).astype(np.int64)]

    def _exec_remsi(self, op: Operation, frame: Frame):
        lhs = frame.get(op.operands[0])
        rhs = frame.get(op.operands[1])
        quotient = np.trunc(np.divide(lhs, rhs)).astype(np.int64)
        return [np.asarray(lhs) - quotient * np.asarray(rhs)]

    _FLOAT_CMP = {
        "oeq": np.equal, "one": np.not_equal, "olt": np.less,
        "ole": np.less_equal, "ogt": np.greater, "oge": np.greater_equal,
    }
    _INT_CMP = {
        "eq": np.equal, "ne": np.not_equal, "slt": np.less,
        "sle": np.less_equal, "sgt": np.greater, "sge": np.greater_equal,
    }

    def _exec_cmpf(self, op: Operation, frame: Frame):
        pred = op.get_attr("predicate").data  # type: ignore[union-attr]
        return [self._FLOAT_CMP[pred](frame.get(op.operands[0]), frame.get(op.operands[1]))]

    def _exec_cmpi(self, op: Operation, frame: Frame):
        pred = op.get_attr("predicate").data  # type: ignore[union-attr]
        return [self._INT_CMP[pred](frame.get(op.operands[0]), frame.get(op.operands[1]))]

    def _exec_numeric_convert(self, op: Operation, frame: Frame):
        value = frame.get(op.operands[0])
        return [self._convert_value(value, op.results[0].type)]

    @staticmethod
    def _convert_value(value, target_type: TypeAttribute):
        if isinstance(value, (MemoryBuffer, ElementRef)):
            return value  # reference conversions are no-ops at runtime
        dtype = numpy_dtype_for(target_type)
        if isinstance(value, np.ndarray) and value.ndim > 0:
            return value.astype(dtype)
        return dtype.type(value)

    # ------------------------------------------------------------------
    # FIR handlers
    # ------------------------------------------------------------------

    def _exec_fir_alloca(self, op: Operation, frame: Frame):
        in_type = op.get_attr("in_type").type  # type: ignore[union-attr]
        label_attr = op.get_attr_or_none("uniq_name")
        label = label_attr.data if isinstance(label_attr, StringAttr) else ""
        if isinstance(in_type, fir_dialect.SequenceType):
            shape = list(in_type.shape)
            dynamic = [frame.get(o) for o in op.operands]
            it = iter(dynamic)
            shape = [int(_as_python(next(it))) if s < 0 else s for s in shape]
            return [MemoryBuffer.for_array(shape, in_type.element_type, label=label)]
        return [MemoryBuffer.for_scalar(in_type, 0, label=label)]

    def _exec_fir_load(self, op: Operation, frame: Frame):
        ref = frame.get(op.operands[0])
        if isinstance(ref, (MemoryBuffer, ElementRef)):
            return [ref.load()]
        raise InterpreterError("fir.load applied to a non-reference value")

    def _exec_fir_store(self, op: Operation, frame: Frame):
        value = frame.get(op.operands[0])
        ref = frame.get(op.operands[1])
        if isinstance(ref, (MemoryBuffer, ElementRef)):
            self.array_writes += isinstance(ref, ElementRef)
            ref.store(_as_python(value))
            return []
        raise InterpreterError("fir.store applied to a non-reference value")

    def _exec_coordinate_of(self, op: Operation, frame: Frame):
        buffer = frame.get(op.operands[0])
        if not isinstance(buffer, MemoryBuffer):
            raise InterpreterError("fir.coordinate_of requires an array buffer")
        indices = tuple(int(_as_python(frame.get(o))) for o in op.operands[1:])
        return [ElementRef(buffer, indices)]

    def _exec_fir_do_loop(self, op: Operation, frame: Frame):
        lower = int(_as_python(frame.get(op.operands[0])))
        upper = int(_as_python(frame.get(op.operands[1])))
        step = int(_as_python(frame.get(op.operands[2])))
        block = op.regions[0].block
        induction = block.args[0]
        if step == 0:
            raise InterpreterError(
                f"fir.do_loop over '{induction.name_hint or '?'}' has a zero step")
        # Fortran DO semantics: the bound is inclusive in the step's direction
        # (range(lower, upper + 1, step) drops the tail of a negative step).
        trips = max(0, (upper - lower + step) // step)
        for value in range(lower, lower + trips * step, step):
            self.stats["fir_loop_iterations"] += 1
            frame.set(induction, np.int64(value))
            self.run_block(block, frame)
        return []

    def _exec_fir_if(self, op: Operation, frame: Frame):
        condition = bool(_as_python(frame.get(op.operands[0])))
        region = op.regions[0] if condition else op.regions[1]
        if region.blocks:
            self.run_block(region.block, frame)
        return []

    def _exec_fir_convert(self, op: Operation, frame: Frame):
        value = frame.get(op.operands[0])
        result_type = op.results[0].type
        if isinstance(result_type, (FloatType, IntegerType, IndexType)):
            return [self._convert_value(value, result_type)]
        return [value]

    # ------------------------------------------------------------------
    # memref handlers
    # ------------------------------------------------------------------

    def _exec_memref_load(self, op: Operation, frame: Frame):
        buffer, *subscripts = [frame.get(o) for o in op.operands]
        return [buffer.data[tuple([int(i) for i in subscripts])]]

    def _exec_memref_store(self, op: Operation, frame: Frame):
        value, buffer, *subscripts = [frame.get(o) for o in op.operands]
        self.array_writes += 1
        buffer.data[tuple([int(i) for i in subscripts])] = _as_python(value)
        return []

    def _exec_memref_snapshot(self, op: Operation, frame: Frame):
        """The source itself, unless a buffer the function writes may share
        its memory — the same array passed for an input and an output, or a
        field the function writes, which names itself.  Then, outside
        "interpret" mode, a field only its own nest overwrites may swap
        storage, or name itself while the nest defers its stores
        (:meth:`Sweep.snapshot`); other snapshots copy."""
        if self.sweep is not None:
            swapped = self.sweep.snapshot(op, frame)
            if swapped is not None:
                return [swapped]
        source, *written = [frame.get(o) for o in op.operands]
        if not any(np.may_share_memory(source.data, buffer.data)
                   for buffer in written):
            self.stats["snapshots_elided"] += 1
            return [source]
        self.stats["snapshots_copied"] += 1
        if enclosing_func(op) not in self._kernel_launchers:
            return [MemoryBuffer.wrap(source.data.copy(order="K"))]
        # Inside a kernel-launching function the copy is kernel-local staging
        # and lives on the device — tagging it host would fabricate on-demand
        # PCIe traffic when it is passed to a gpu.launch_func.  It comes out of
        # the accounted device pool (a device OOM stages it in host memory)
        # and is released when the function returns.
        copy = self._require_gpu().alloc_degraded(
            source.data.shape, op.results[0].type.element_type,
            label="gpu_scratch")
        self._device_scratch_stack[-1].append(copy)
        copy.copy_from(source)
        return [copy]

    # ------------------------------------------------------------------
    # scf handlers
    # ------------------------------------------------------------------

    def _exec_scf_for(self, op: Operation, frame: Frame):
        lower = int(_as_python(frame.get(op.operands[0])))
        upper = int(_as_python(frame.get(op.operands[1])))
        step = int(_as_python(frame.get(op.operands[2])))
        iter_values = [frame.get(o) for o in op.operands[3:]]
        block = op.regions[0].block
        for value in range(lower, upper, step):
            frame.set(block.args[0], np.int64(value))
            for arg, iter_value in zip(block.args[1:], iter_values):
                frame.set(arg, iter_value)
            iter_values = self.run_block(block, frame)
        return iter_values

    def _exec_scf_parallel(self, op: Operation, frame: Frame):
        self.stats["parallel_regions"] += 1
        return self._run_nest(op, frame)

    def _iterate_nest(self, block: Block, frame: Frame, lowers, uppers, steps,
                      dim: int, current: List[int]) -> None:
        if dim == len(lowers):
            for arg, value in zip(block.args, current):
                frame.set(arg, np.int64(value))
            self.run_block(block, frame)
            return
        for value in range(lowers[dim], uppers[dim], steps[dim]):
            current[dim] = value
            self._iterate_nest(block, frame, lowers, uppers, steps, dim + 1, current)

    def _exec_scf_if(self, op: Operation, frame: Frame):
        condition = bool(_as_python(frame.get(op.operands[0])))
        region = op.regions[0] if condition else op.regions[1]
        if not region.blocks:
            return [None] * len(op.results)
        return self.run_block(region.block, frame)

    # ------------------------------------------------------------------
    # omp handlers (a parallel region runs its body once; the worksharing
    # loops inside it are what the tiled executor parallelises)
    # ------------------------------------------------------------------

    def _exec_omp_parallel(self, op: Operation, frame: Frame):
        self.stats["omp_regions"] += 1
        self.run_block(op.regions[0].block, frame)
        return []

    # ------------------------------------------------------------------
    # sweeps: each vectorizable handler hands ``self.sweep`` its scalar runner
    # ------------------------------------------------------------------

    def _run_nest(self, op: Operation, frame: Frame):
        """Execute a loop-nest op (``scf.parallel`` / ``omp.wsloop``)."""
        rank = int(op.get_attr("rank").value)  # type: ignore[union-attr]
        lowers = [int(_as_python(frame.get(o))) for o in op.operands[:rank]]
        uppers = [int(_as_python(frame.get(o))) for o in op.operands[rank:2 * rank]]
        steps = [int(_as_python(frame.get(o))) for o in op.operands[2 * rank:3 * rank]]
        block = op.regions[0].block

        def scalar_runner() -> None:
            self._iterate_nest(block, frame, lowers, uppers, steps, 0,
                               [0] * len(lowers))

        if self.sweep is None:
            scalar_runner()
        else:
            self.sweep.nest(op, frame, scalar_runner, lowers, uppers)
        return []

    # ------------------------------------------------------------------
    # gpu handlers
    # ------------------------------------------------------------------

    def _require_gpu(self) -> SimulatedGPU:
        if self.gpu is None:
            self.gpu = SimulatedGPU()
        return self.gpu

    def _exec_gpu_alloc(self, op: Operation, frame: Frame):
        gpu = self._require_gpu()
        mtype: MemRefType = op.results[0].type  # type: ignore[assignment]
        shape = list(mtype.shape)
        dynamic = [int(_as_python(frame.get(o))) for o in op.operands]
        it = iter(dynamic)
        shape = [next(it) if s < 0 else s for s in shape]
        return [gpu.alloc_degraded(shape, mtype.element_type)]

    def _exec_gpu_dealloc(self, op: Operation, frame: Frame):
        self._require_gpu().dealloc(frame.get(op.operands[0]))
        return []

    def _exec_gpu_memcpy(self, op: Operation, frame: Frame):
        gpu = self._require_gpu()
        start = _time.perf_counter()
        self.array_writes += 1
        gpu.memcpy(frame.get(op.operands[0]), frame.get(op.operands[1]))
        self.stats["transfer_seconds"] += _time.perf_counter() - start
        return []

    def _exec_gpu_host_register(self, op: Operation, frame: Frame):
        self._require_gpu().host_register(frame.get(op.operands[0]))
        return []

    def _exec_gpu_launch_func(self, op: Operation, frame: Frame):
        gpu = self._require_gpu()
        kernel_name = op.get_attr("kernel").root  # type: ignore[union-attr]
        grid = op.get_attr("grid_size").as_tuple()  # type: ignore[union-attr]
        block = op.get_attr("block_size").as_tuple()  # type: ignore[union-attr]
        args = [frame.get(o) for o in op.operands]
        buffers = [a for a in args if isinstance(a, MemoryBuffer) and not a.is_scalar]
        self.stats["kernel_launches"] += 1
        kernel_op = self._gpu_kernels.get(kernel_name)
        if kernel_op is None:
            raise InterpreterError(f"gpu.launch_func: unknown kernel '{kernel_name}'")

        def scalar_runner() -> None:
            self._run_launch_scalar(kernel_op, args, grid, block)

        start = _time.perf_counter()
        try:
            if self.sweep is None:
                scalar_runner()
            else:
                self.sweep.launch(op, kernel_op, frame, scalar_runner, grid, block)
            return []
        finally:
            seconds = _time.perf_counter() - start
            gpu.record_launch(kernel_name, buffers, seconds)
            self.stats["gpu_seconds"] += seconds

    def _run_launch_scalar(self, kernel_op: Operation, args: List[object],
                           grid: Sequence[int], block: Sequence[int]) -> None:
        """The per-thread scalar oracle: run the gpu.func body once for every
        thread of the (grid × block) lattice."""
        body = kernel_op.regions[0].block
        for bz in range(grid[2]):
            for by in range(grid[1]):
                for bx in range(grid[0]):
                    for tz in range(block[2]):
                        for ty in range(block[1]):
                            for tx in range(block[0]):
                                ctx = {
                                    "thread_id": (tx, ty, tz),
                                    "block_id": (bx, by, bz),
                                    "block_dim": tuple(block),
                                }
                                self._gpu_thread_ctx.append(ctx)
                                kernel_frame = Frame()
                                for barg, value in zip(body.args, args):
                                    kernel_frame.set(barg, value)
                                try:
                                    self.run_block(body, kernel_frame)
                                finally:
                                    self._gpu_thread_ctx.pop()

    def _exec_gpu_id(self, what: str):
        dims = {"x": 0, "y": 1, "z": 2}

        def handler(op: Operation, frame: Frame):
            if not self._gpu_thread_ctx:
                raise InterpreterError(f"gpu.{what} used outside of a kernel launch")
            ctx = self._gpu_thread_ctx[-1]
            dim = op.get_attr("dimension").data  # type: ignore[union-attr]
            return [np.int64(ctx[what][dims[dim]])]

        return handler

    # ------------------------------------------------------------------
    # dmp / mpi handlers
    # ------------------------------------------------------------------

    def _require_decomposition(self) -> CartesianDecomposition:
        if self.decomposition is None:
            raise InterpreterError(
                "distributed execution requires a CartesianDecomposition"
            )
        return self.decomposition

    def _require_comm(self, op: Operation, peer: int):
        if self.comm is None:
            raise InterpreterError(
                f"{op.name} to rank {peer} requires a communicator"
            )
        return self.comm

    def _exec_dmp_grid(self, op: Operation, frame: Frame):
        return [self._require_decomposition()]

    def _exec_dmp_neighbour_rank(self, op: Operation, frame: Frame):
        decomposition = self._require_decomposition()
        dim = int(op.get_attr("dim").value)  # grid dimension (position)
        direction = int(op.get_attr("direction").value)
        coords = list(decomposition.coords_of(self.rank))
        coords[dim] += direction
        return [np.int32(decomposition.rank_of(coords))]

    def _buffer_slices(self, op: Operation, buffer: MemoryBuffer):
        lb_attr = op.get_attr_or_none("slice_lb")
        ub_attr = op.get_attr_or_none("slice_ub")
        if None in (lb_attr, ub_attr):
            return tuple(slice(None) for _ in buffer.data.shape)
        return tuple(
            slice(l, u) for l, u in zip(lb_attr.as_tuple(), ub_attr.as_tuple())
        )

    def _exec_mpi_isend(self, op: Operation, frame: Frame):
        buffer = frame.get(op.operands[0])
        peer = int(_as_python(frame.get(op.operands[1])))
        tag = int(_as_python(frame.get(op.operands[2])))
        if peer < 0:
            return [{"type": "send"}]
        comm = self._require_comm(op, peer)
        payload = buffer.data[self._buffer_slices(op, buffer)]
        start = _time.perf_counter()
        comm.send(self.rank, peer, tag, payload)
        self.stats["halo_seconds"] += _time.perf_counter() - start
        self.stats["mpi_messages"] += 1
        self.stats["mpi_bytes"] += payload.nbytes
        return [{"type": "send"}]

    def _exec_mpi_irecv(self, op: Operation, frame: Frame):
        buffer = frame.get(op.operands[0])
        peer = int(_as_python(frame.get(op.operands[1])))
        tag = int(_as_python(frame.get(op.operands[2])))
        if peer < 0:
            return [{"type": "noop"}]
        request = {
            "type": "recv",
            "buffer": buffer,
            "slices": self._buffer_slices(op, buffer),
            "source": peer,
            "tag": tag,
        }
        return [request]

    def _exec_mpi_waitall(self, op: Operation, frame: Frame):
        for operand in op.operands:
            request = frame.get(operand)
            if not isinstance(request, dict) or request.get("type") != "recv":
                continue
            comm = self._require_comm(op, request["source"])
            start = _time.perf_counter()
            data = comm.receive(request["source"], self.rank, request["tag"])
            self.stats["halo_seconds"] += _time.perf_counter() - start
            self.array_writes += 1
            request["buffer"].data[request["slices"]] = data
        return []


__all__ = [
    "Interpreter",
    "LinkTable",
    "InterpreterError",
    "Frame",
]
