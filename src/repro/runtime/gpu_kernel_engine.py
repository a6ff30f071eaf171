"""Vectorized execution engine for outlined GPU kernels.

``convert-parallel-loops-to-gpu`` outlines each ``scf.parallel`` sweep into a
``gpu.func`` whose body recomputes, per thread, the same few lines: a lattice
coordinate ``block_id*block_dim + thread_id`` per dimension, the loop's lower
bound added as an offset, a bounds guard ``iv < upper`` and-ed across
dimensions, and the element-wise loop body under one ``scf.if``.  The scalar
interpreter executes that body once per thread of the ``grid × block``
lattice — millions of Python-level op dispatches per launch.

This module compiles the *whole launch* instead: the prologue is evaluated
symbolically (each induction value becomes a unit-coefficient affine
``lattice[d] + offset``, each guard an upper bound on a lattice dimension),
and the guarded body is translated by the same
:class:`repro.runtime.kernel_compiler._BodyTranslator` that powers the
loop-nest and apply kernels, producing one NumPy whole-array function per
kernel.  At launch time the iteration domain is the lattice clipped by the
guards — exactly the region the per-thread guard admits — so one call of the
compiled function computes what ``grid × block`` scalar threads would.

Caching, guards and the oracle follow the kernel-compiler contract:

* kernels are cached by the **structural hash of the gpu.func** (not the
  launch site — two launches of structurally identical kernels, even across
  modules, share one compiled function), stored through
  :meth:`KernelCompiler.bound_for` in the same caches and stats counters as
  every other kernel kind;
* every launch re-validates the runtime **bounds/alias guards**
  (:meth:`CompiledKernel.guards_pass`) against the actual argument buffers —
  aliased store/load arguments or out-of-window accesses fall back to the
  per-thread scalar path, counted in
  ``Interpreter.stats["gpu_launch_fallbacks"]``;
* the per-thread scalar interpreter remains the **oracle**: execution mode
  ``"crosscheck"`` replays every vectorized launch through it and requires
  bitwise agreement.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.operation import Operation
from .kernel_compiler import (
    BoundKernel,
    CompiledKernel,
    KernelCompiler,
    KernelUnsupported,
    _Affine,
    _BodyTranslator,
    _Const,
)

_DIM_INDEX = {"x": 0, "y": 1, "z": 2}


class _IdSym:
    """A raw gpu id/dim query (thread_id, block_id, block_dim, grid_dim)."""

    __slots__ = ("kind", "dim")

    def __init__(self, kind: str, dim: int):
        self.kind = kind
        self.dim = dim


class _BaseSym:
    """``block_id[d] * block_dim[d]`` — the per-block lattice base."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        self.dim = dim


class _GuardSym:
    """A boolean guard: conjunction of ``lattice[d] + offset < upper``
    constraints, held as the tightest upper bound per dimension (in lattice
    coordinates)."""

    __slots__ = ("uppers",)

    def __init__(self, uppers: Dict[int, int]):
        self.uppers = uppers

    def merged(self, other: "_GuardSym") -> "_GuardSym":
        uppers = dict(self.uppers)
        for dim, bound in other.uppers.items():
            uppers[dim] = min(uppers.get(dim, bound), bound)
        return _GuardSym(uppers)


class GpuLaunchKernel(CompiledKernel):
    """A compiled gpu.func: a whole-lattice NumPy sweep plus the per-dimension
    guard bounds needed to clip the ``grid × block`` lattice at launch time."""

    def __init__(self, *args, upper_limits: Tuple[Optional[int], ...] = (),
                 **kwargs):
        super().__init__(*args, **kwargs)
        #: Tightest ``iv < upper`` guard per lattice dimension (lattice
        #: coordinates; None when a dimension carries no guard).
        self.upper_limits = tuple(upper_limits)

    def launch_domain(self, grid, block) -> Tuple[List[int], List[int]]:
        """The effective iteration domain of one launch: the thread lattice
        ``[0, grid*block)`` clipped by the compiled guards."""
        lowers = [0] * self.rank
        uppers = []
        for dim in range(self.rank):
            extent = int(grid[dim]) * int(block[dim])
            limit = self.upper_limits[dim] if dim < len(self.upper_limits) else None
            uppers.append(extent if limit is None else min(extent, limit))
        return lowers, uppers


def compile_gpu_func(func_op: Operation) -> GpuLaunchKernel:
    """Compile a ``gpu.func`` produced by kernel outlining into one
    whole-lattice NumPy sweep.

    Raises :class:`KernelUnsupported` for anything outside the outlined shape
    (barriers, unguarded bodies, non-affine indexing, …); the caller falls
    back to the per-thread scalar interpreter.
    """
    if func_op.name != "gpu.func":
        raise KernelUnsupported(f"'{func_op.name}' is not a gpu.func")
    body = func_op.regions[0].block

    # -- pass 1: symbolic prologue ------------------------------------------
    symbols: Dict[int, object] = {}
    guarded: Optional[Operation] = None
    guard: Optional[_GuardSym] = None
    dims_seen = -1

    def sym(value) -> object:
        return symbols.get(id(value))

    for op in body.ops:
        name = op.name
        if name in ("gpu.thread_id", "gpu.block_id", "gpu.block_dim",
                    "gpu.grid_dim"):
            dim = _DIM_INDEX[op.get_attr("dimension").data]  # type: ignore[union-attr]
            dims_seen = max(dims_seen, dim)
            symbols[id(op.results[0])] = _IdSym(name.split(".")[1], dim)
            continue
        if name == "arith.constant":
            attr = op.get_attr("value")
            symbols[id(op.results[0])] = _Const(int(attr.value))  # type: ignore[union-attr]
            continue
        if name == "arith.muli":
            a, b = sym(op.operands[0]), sym(op.operands[1])
            if isinstance(a, _IdSym) and isinstance(b, _IdSym) and \
                    a.dim == b.dim and {a.kind, b.kind} == {"block_id", "block_dim"}:
                symbols[id(op.results[0])] = _BaseSym(a.dim)
                continue
            if isinstance(a, _Const) and isinstance(b, _Const):
                symbols[id(op.results[0])] = _Const(a.value * b.value)
                continue
            raise KernelUnsupported("unrecognised index product in gpu.func")
        if name in ("arith.addi", "arith.subi"):
            a, b = sym(op.operands[0]), sym(op.operands[1])
            sign = 1 if name == "arith.addi" else -1
            if name == "arith.addi" and isinstance(a, _BaseSym) and \
                    isinstance(b, _IdSym) and b.kind == "thread_id" and b.dim == a.dim:
                symbols[id(op.results[0])] = _Affine(a.dim, 0)
                continue
            if isinstance(a, _Affine) and isinstance(b, _Const):
                symbols[id(op.results[0])] = _Affine(a.dim, a.offset + sign * b.value)
                continue
            if name == "arith.addi" and isinstance(a, _Const) and isinstance(b, _Affine):
                symbols[id(op.results[0])] = _Affine(b.dim, b.offset + a.value)
                continue
            if isinstance(a, _Const) and isinstance(b, _Const):
                symbols[id(op.results[0])] = _Const(a.value + sign * b.value)
                continue
            raise KernelUnsupported("unrecognised index sum in gpu.func")
        if name == "arith.cmpi":
            pred = op.get_attr("predicate").data  # type: ignore[union-attr]
            a, b = sym(op.operands[0]), sym(op.operands[1])
            if pred == "slt" and isinstance(a, _Affine) and isinstance(b, _Const):
                symbols[id(op.results[0])] = _GuardSym({a.dim: b.value - a.offset})
                continue
            raise KernelUnsupported("unrecognised bounds guard in gpu.func")
        if name == "arith.andi":
            a, b = sym(op.operands[0]), sym(op.operands[1])
            if isinstance(a, _GuardSym) and isinstance(b, _GuardSym):
                symbols[id(op.results[0])] = a.merged(b)
                continue
            raise KernelUnsupported("unrecognised guard conjunction in gpu.func")
        if name == "scf.if":
            if guarded is not None:
                raise KernelUnsupported("gpu.func with multiple guarded regions")
            condition = sym(op.operands[0])
            if not isinstance(condition, _GuardSym):
                raise KernelUnsupported("gpu.func guard is not a bounds check")
            if op.results:
                raise KernelUnsupported("guarded region yields values")
            if len(op.regions) > 1 and op.regions[1].blocks and \
                    op.regions[1].block.ops:
                raise KernelUnsupported("guarded region has an else branch")
            guarded = op
            guard = condition
            continue
        if name == "gpu.return":
            continue
        raise KernelUnsupported(f"operation '{name}' in a gpu.func prologue")

    if guarded is None or guard is None:
        raise KernelUnsupported("gpu.func has no guarded body")
    rank = dims_seen + 1
    if rank < 1:
        raise KernelUnsupported("gpu.func uses no lattice dimensions")

    # -- pass 2: translate the guarded body ---------------------------------
    translator = _BodyTranslator(rank)
    translator.values.update(
        (key, value) for key, value in symbols.items()
        if isinstance(value, (_Affine, _Const))
    )
    # Kernel block args are the externals, in operand order of the launch.
    for i, arg in enumerate(body.args):
        translator.external_slots[id(arg)] = i
        translator.external_paths.append(("root", i))

    def slot_of(value, op_index, operand_index) -> int:
        if id(value) not in translator.external_slots:
            raise KernelUnsupported("access to a non-argument memref")
        return translator.external_slots[id(value)]

    translator.translate_memory_body(guarded.regions[0].block, slot_of)

    upper_limits = tuple(guard.uppers.get(d) for d in range(rank))
    return GpuLaunchKernel("_gpu_kernel", translator, upper_limits=upper_limits)


class GpuKernelEngine:
    """Per-interpreter facade over gpu.func compilation.

    A launch site binds through :meth:`KernelCompiler.bound_for`, so it shares
    both of the compiler's cache levels: the identity memo on the launch op
    (one dict probe per sweep) and the structural cache keyed on the
    **gpu.func body** hash — the launch site's grid/block attributes are
    runtime geometry, not kernel identity, so reshaped launches of one kernel
    share a compiled function.
    """

    def __init__(self, kernels: KernelCompiler):
        self.kernels = kernels

    def kernel_for(self, launch_op: Operation,
                   func_op: Operation) -> Optional[BoundKernel]:
        """The compiled whole-lattice kernel bound to one launch site, or
        None when the gpu.func cannot be vectorized."""
        return self.kernels.bound_for(launch_op, func_op,
                                      lambda: compile_gpu_func(func_op))


__all__ = [
    "GpuKernelEngine",
    "GpuLaunchKernel",
    "compile_gpu_func",
]
