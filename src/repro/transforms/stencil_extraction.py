"""Stencil extraction: lift stencil-dialect IR out of FIR into its own module.

Flang does not register the stencil (or most standard) dialects and
``mlir-opt`` does not know FIR, so the mixed IR produced by discovery cannot be
compiled by either tool alone.  The paper's solution (§3) is to extract the
stencil portions into functions in a *separate* MLIR module, compile the two
modules with different flows and link the objects; the FIR module calls the
extracted functions, passing its arrays as ``!fir.llvm_ptr`` values (which are
bit-identical to LLVM pointers).

This pass reproduces that split: it returns a new module containing one
function per extracted stencil region and rewrites the FIR module to call it.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

from ..dialects import fir
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp, ReturnOp
from ..dialects.llvm import LLVMPointerType
from ..ir.attributes import UnitAttr
from ..ir.context import Context
from ..ir.operation import Block, Operation
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.ssa import SSAValue
from ..ir.types import TypeAttribute


def _is_stencil_related(op: Operation, block_ops: Sequence[Operation]) -> bool:
    """True for stencil ops and for FIR/arith ops that only feed stencil ops."""
    if op.name.startswith("stencil."):
        return True
    if op.name in ("fir.load", "arith.constant", "fir.convert"):
        if not op.results:
            return False
        uses = [u.operation for r in op.results for u in r.uses]
        return bool(uses) and all(u.name.startswith("stencil.") for u in uses)
    return False


def _stencil_segments(block: Block) -> List[List[Operation]]:
    """Maximal contiguous runs of stencil-related operations within a block."""
    segments: List[List[Operation]] = []
    current: List[Operation] = []
    ops = block.ops
    for op in ops:
        if _is_stencil_related(op, ops):
            current.append(op)
        else:
            if any(o.name.startswith("stencil.") for o in current):
                segments.append(current)
            current = []
    if any(o.name.startswith("stencil.") for o in current):
        segments.append(current)
    return segments


def _external_inputs(segment: Sequence[Operation]) -> List[SSAValue]:
    """Values used by the segment but defined outside of it (in program order)."""
    inside_ops = set(id(op) for op in segment)
    inside_values = set()
    for op in segment:
        for nested in op.walk():
            inside_values.update(id(r) for r in nested.results)
            for region in nested.regions:
                for blk in region.blocks:
                    inside_values.update(id(a) for a in blk.args)
    external: List[SSAValue] = []
    seen = set()
    for op in segment:
        for nested in op.walk():
            for operand in nested.operands:
                if id(operand) in inside_values or id(operand) in seen:
                    continue
                seen.add(id(operand))
                external.append(operand)
    return external


def _extracted_arg_type(value: SSAValue) -> TypeAttribute:
    """Reference-like values cross the module boundary as LLVM pointers."""
    if fir.is_reference_like(value.type):
        return LLVMPointerType(fir.element_type_of(value.type))
    return value.type


@register_pass
class ExtractStencilsPass(ModulePass):
    """Move stencil IR into a separate module, leaving calls behind in FIR."""

    name = "extract-stencils"

    def __init__(self):
        #: The module holding the extracted stencil functions (after apply()).
        self.extracted_module: Optional[ModuleOp] = None
        #: Names of the functions created, in extraction order.
        self.extracted_functions: List[str] = []

    def apply(self, ctx: Context, module: Operation) -> None:
        extracted_funcs: List[FuncOp] = []
        counter = 0
        for func_op in list(module.walk()):
            if not isinstance(func_op, FuncOp) or func_op.is_declaration:
                continue
            for block in self._all_blocks(func_op):
                for segment in _stencil_segments(block):
                    name = f"_stencil_{func_op.sym_name}_{counter}"
                    counter += 1
                    new_func = self._extract_segment(
                        module, func_op, block, segment, name
                    )
                    extracted_funcs.append(new_func)
                    self.extracted_functions.append(name)
        self.extracted_module = ModuleOp(extracted_funcs, sym_name="stencil_module")

    # ------------------------------------------------------------------

    @staticmethod
    def _all_blocks(func_op: FuncOp) -> Iterator[Block]:
        """Every block under ``func_op``, in walk order.  A block is reached
        after the segments of those enclosing it were moved out, so the blocks
        of a moved operation are not reached."""
        for op in func_op.walk():
            for region in op.regions:
                yield from region.blocks

    def _extract_segment(
        self,
        fir_module: Operation,
        func_op: FuncOp,
        block: Block,
        segment: Sequence[Operation],
        name: str,
    ) -> FuncOp:
        externals = _external_inputs(segment)
        arg_types = [_extracted_arg_type(v) for v in externals]

        new_func = FuncOp.build(name, arg_types, [])
        new_func.set_attr("stencil.extracted", UnitAttr())
        entry = new_func.entry_block
        value_map: Dict[SSAValue, SSAValue] = {}
        for external, arg in zip(externals, entry.args):
            arg.name_hint = external.name_hint
            value_map[external] = arg

        # Rewrite the FIR side: convert array references to !fir.llvm_ptr and
        # call the extracted function in place of the segment.
        first_op = segment[0]
        call_args: List[SSAValue] = []
        for external in externals:
            if fir.is_reference_like(external.type):
                convert = fir.ConvertOp(
                    external, fir.LLVMPointerType(fir.element_type_of(external.type))
                )
                block.insert_op_before(convert, first_op)
                call_args.append(convert.results[0])
            else:
                call_args.append(external)
        call = fir.CallOp(name, call_args)
        block.insert_op_before(call, first_op)

        # Move the segment into the stencil function, externals mapped to its
        # arguments.
        entry.take_ops(segment, value_map)
        entry.add_op(ReturnOp([]))

        # Provide a declaration of the extracted function in the FIR module so
        # the call is resolvable when the two objects are "linked".
        if isinstance(fir_module, ModuleOp) and fir_module.get_symbol(name) is None:
            fir_module.add_op(FuncOp.declaration(name, arg_types, []))
        return new_func


__all__ = ["ExtractStencilsPass"]
