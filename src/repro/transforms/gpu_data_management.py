"""GPU data management passes.

The paper evaluates two strategies for getting stencil data onto the GPU
(§4.3, Figure 5):

* the **initial** approach — ``gpu.host_register`` every stencil array, which
  leaves the data in host memory and pages it across PCI express on demand at
  every kernel invocation (very slow);
* the **optimised** approach — a bespoke transformation pass that walks the IR
  just after stencil extraction, identifies what data each extracted stencil
  function needs, and adds explicit allocation / copy / deallocation functions
  to the stencil module which the FIR module calls *outside* the iteration
  loop, so data stays resident on the device between kernel launches.

Both are implemented here.  The GPU pipeline then lowers each stencil
function's applies to ``gpu.launch_func`` ops, and the simulated GPU accounts
each launch — and, for host-resident data, the on-demand transfer traffic
that made the initial strategy slow — where it runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..dialects import fir, gpu, stencil
from ..dialects.builtin import ModuleOp, UnrealizedConversionCastOp
from ..dialects.func import FuncOp, ReturnOp
from ..dialects.llvm import LLVMPointerType
from ..ir.builder import Builder
from ..ir.operation import Operation
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.ssa import OpResult, SSAValue
from ..ir.types import MemRefType


def _stencil_functions(stencil_module: ModuleOp) -> List[FuncOp]:
    return [
        op
        for op in stencil_module.walk()
        if isinstance(op, FuncOp) and op.get_attr_or_none("stencil.extracted") is not None
    ]


def _call_sites(fir_module: ModuleOp, callee: str) -> List[fir.CallOp]:
    return [
        op
        for op in fir_module.walk()
        if isinstance(op, fir.CallOp) and op.callee == callee
    ]


def _array_shape_of_argument(value: SSAValue) -> Optional[Tuple[int, ...]]:
    """Shape of the FIR array behind a (possibly converted) call argument."""
    current = value
    for _ in range(8):
        shape = fir.array_shape_of(current.type) if fir.is_reference_like(current.type) else None
        if shape is not None and all(s >= 0 for s in shape):
            return tuple(shape)
        if isinstance(current, OpResult) and isinstance(
            current.op, (fir.ConvertOp, fir.DeclareOp)
        ):
            current = current.op.operands[0]
            continue
        break
    return None


class GpuDataManagementBase(ModulePass):
    """Shared helpers for the two data strategies (operate on a module *pair*)."""

    def __init__(self, stencil_module: Optional[ModuleOp] = None):
        self.stencil_module = stencil_module

    def apply(self, module: Operation) -> None:
        if self.stencil_module is None:
            raise ValueError(f"{self.name} requires the extracted stencil module")
        self.apply_pair(module, self.stencil_module)

    def apply_pair(self, fir_module: ModuleOp, stencil_module: ModuleOp) -> None:
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def _outermost_enclosing_loop(op: Operation) -> Optional[Operation]:
        outer = None
        parent = op.parent_op()
        while parent is not None:
            if isinstance(parent, fir.DoLoopOp):
                outer = parent
            parent = parent.parent_op()
        return outer

    @staticmethod
    def _add_declaration(fir_module: ModuleOp, name: str, arg_types, result_types=()) -> None:
        if fir_module.get_symbol(name) is None:
            fir_module.add_op(FuncOp.declaration(name, arg_types, result_types))

    @staticmethod
    def _hoisted_pointer(value: SSAValue, anchor: Operation) -> SSAValue:
        """A !fir.llvm_ptr for ``value`` that is available before ``anchor``.

        The extraction pass creates the ``fir.convert`` to ``llvm_ptr`` right
        next to the stencil call (inside the iteration loop); data-management
        calls hoisted outside that loop need their own conversion of the
        underlying array reference, which is defined at function entry.
        """
        source = value
        while isinstance(source, OpResult) and isinstance(source.op, fir.ConvertOp):
            source = source.op.operands[0]
        convert = fir.ConvertOp(
            source, fir.LLVMPointerType(fir.element_type_of(source.type))
        )
        anchor.parent_block().insert_op_before(convert, anchor)
        return convert.results[0]


@register_pass
class GpuHostRegisterPass(GpuDataManagementBase):
    """The paper's *initial* data strategy: register every array with the GPU."""

    name = "gpu-data-host-register"

    def apply_pair(self, fir_module: ModuleOp, stencil_module: ModuleOp) -> None:
        for func_op in _stencil_functions(stencil_module):
            calls = _call_sites(fir_module, func_op.sym_name)
            if not calls:
                continue
            register_name = f"_gpu_register_{func_op.sym_name}"
            arg_types = list(func_op.function_type.inputs)
            ptr_args = [
                (i, t) for i, t in enumerate(arg_types) if isinstance(t, LLVMPointerType)
            ]
            register_func = FuncOp.build(register_name, [t for _, t in ptr_args], [])
            builder = Builder.at_end(register_func.entry_block)
            for arg in register_func.entry_block.args:
                builder.insert(gpu.HostRegisterOp(arg))
            builder.insert(ReturnOp([]))
            stencil_module.add_op(register_func)
            self._add_declaration(fir_module, register_name, [t for _, t in ptr_args])

            # Call the registration function once, before the outermost loop
            # enclosing the first stencil invocation (or before the call).
            call = calls[0]
            anchor: Operation = self._outermost_enclosing_loop(call) or call
            block = anchor.parent_block()
            register_args = [
                self._hoisted_pointer(call.operands[i], anchor) for i, _ in ptr_args
            ]
            register_call = fir.CallOp(register_name, register_args)
            block.insert_op_before(register_call, anchor)


@register_pass
class GpuOptimisedDataPass(GpuDataManagementBase):
    """The paper's bespoke optimised data-management transformation.

    For every extracted stencil function the pass adds, to the stencil module,
    an allocation+copy-in function and a deallocation function that first
    copies back every field the stencil function does not only read, and
    rewrites the FIR module to (a) call the allocation function once before the
    outermost iteration loop, (b) pass the returned device pointers to the
    stencil invocations inside the loop, and (c) copy results back and free
    device memory after the loop.
    """

    name = "gpu-data-optimised"

    def apply_pair(self, fir_module: ModuleOp, stencil_module: ModuleOp) -> None:
        for func_op in _stencil_functions(stencil_module):
            calls = _call_sites(fir_module, func_op.sym_name)
            if not calls:
                continue
            self._transform_calls(fir_module, stencil_module, func_op, calls)

    def _transform_calls(self, fir_module: ModuleOp, stencil_module: ModuleOp,
                         func_op: FuncOp, calls: List[fir.CallOp]) -> None:
        arg_types = list(func_op.function_type.inputs)
        ptr_indices = [i for i, t in enumerate(arg_types) if isinstance(t, LLVMPointerType)]
        if not ptr_indices:
            return
        first_call = calls[0]
        shapes = []
        for i in ptr_indices:
            shape = _array_shape_of_argument(first_call.operands[i])
            if shape is None:
                return  # dynamic shapes: leave data management to the caller
            shapes.append(shape)
        elem_types = [arg_types[i].element_type for i in ptr_indices]
        ptr_types = [arg_types[i] for i in ptr_indices]

        # ---- allocation + copy-in function --------------------------------
        alloc_name = f"_gpu_alloc_{func_op.sym_name}"
        alloc_func = FuncOp.build(alloc_name, ptr_types, ptr_types)
        builder = Builder.at_end(alloc_func.entry_block)
        device_values: List[SSAValue] = []
        for arg, shape, elem, ptr_type in zip(
            alloc_func.entry_block.args, shapes, elem_types, ptr_types
        ):
            host_view = builder.insert(
                UnrealizedConversionCastOp([arg], [MemRefType(shape, elem)])
            )
            device = builder.insert(gpu.AllocOp(MemRefType(shape, elem)))
            builder.insert(gpu.MemcpyOp(device.results[0], host_view.results[0]))
            device_ptr = builder.insert(
                UnrealizedConversionCastOp([device.results[0]], [ptr_type])
            )
            device_values.append(device_ptr.results[0])
        builder.insert(ReturnOp(device_values))
        stencil_module.add_op(alloc_func)

        # ---- copy-back + deallocation function -----------------------------
        free_name = f"_gpu_free_{func_op.sym_name}"
        free_func = FuncOp.build(free_name, ptr_types + ptr_types, [])
        builder = Builder.at_end(free_func.entry_block)
        n = len(ptr_indices)
        for i in range(n):
            device_arg = free_func.entry_block.args[i]
            host_arg = free_func.entry_block.args[n + i]
            memref_type = MemRefType(shapes[i], elem_types[i])
            # Only what the stencil function may have written comes back.
            stencil_arg = func_op.entry_block.args[ptr_indices[i]]
            copies_back = not all(isinstance(use.operation, stencil.ExternalLoadOp)
                                  and use.operation.read_only
                                  for use in stencil_arg.uses)
            if copies_back:
                host_view = builder.insert(
                    UnrealizedConversionCastOp([host_arg], [memref_type]))
            device_view = builder.insert(
                UnrealizedConversionCastOp([device_arg], [memref_type]))
            if copies_back:
                builder.insert(gpu.MemcpyOp(host_view.results[0], device_view.results[0]))
            builder.insert(gpu.DeallocOp(device_view.results[0]))
        builder.insert(ReturnOp([]))
        stencil_module.add_op(free_func)

        self._add_declaration(fir_module, alloc_name, ptr_types, ptr_types)
        self._add_declaration(fir_module, free_name, ptr_types + ptr_types)

        # ---- rewrite the FIR call sites -------------------------------------
        anchor: Operation = self._outermost_enclosing_loop(first_call) or first_call
        block = anchor.parent_block()
        host_ptrs = [
            self._hoisted_pointer(first_call.operands[i], anchor) for i in ptr_indices
        ]
        alloc_call = fir.CallOp(alloc_name, host_ptrs, ptr_types)
        block.insert_op_before(alloc_call, anchor)
        device_ptrs = list(alloc_call.results)

        for call in calls:
            for slot, arg_index in enumerate(ptr_indices):
                call.set_operand(arg_index, device_ptrs[slot])

        free_call = fir.CallOp(free_name, device_ptrs + host_ptrs)
        block.insert_op_after(free_call, anchor)


__all__ = [
    "GpuHostRegisterPass",
    "GpuOptimisedDataPass",
    "GpuDataManagementBase",
]
