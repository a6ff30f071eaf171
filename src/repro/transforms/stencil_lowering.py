"""Lower the stencil dialect to explicit scf loop nests over memrefs.

Mirrors the xDSL/Open Earth stencil lowering described in §3 of the paper:

* **CPU flavour** — the outermost dimension becomes an ``scf.parallel`` loop
  and inner dimensions become ``scf.for`` loops (amenable to OpenMP lowering
  and vectorisation of the innermost loop);
* **GPU flavour** — all dimensions are coalesced into a single
  ``scf.parallel`` nest, which ``convert-parallel-loops-to-gpu`` then maps to
  a kernel launch.

``stencil.load`` becomes a snapshot, preserving the dialect's value
semantics: of a field the function also writes (Gauss–Seidel), an explicit copy
(``memref.alloc`` + ``memref.copy``); of a field it only reads
(:attr:`stencil.ExternalLoadOp.read_only`), a ``memref.snapshot`` naming the
written fields' buffers, which copies only when, at run time, the field shares
memory with one of them — an argument passed twice.  Every ``stencil.apply``
result is written straight into the memref backing the field its
``stencil.store`` targets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..dialects import arith, memref, scf, stencil
from ..dialects.builtin import UnrealizedConversionCastOp
from ..dialects.func import FuncOp
from ..ir.builder import Builder
from ..ir.context import Context
from ..ir.operation import Block, Operation
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.ssa import BlockArgument, SSAValue
from ..ir.types import MemRefType, index
from .cleanup import eliminate_dead_code


class LoweringError(Exception):
    """Raised when stencil IR cannot be lowered (e.g. a store-less apply)."""


def _field_memref_type(field_type: stencil.FieldType) -> MemRefType:
    return MemRefType(field_type.shape, field_type.element_type)


@register_pass
class ConvertStencilToSCFPass(ModulePass):
    """``convert-stencil-to-scf{target=cpu|gpu}``."""

    name = "convert-stencil-to-scf"

    def __init__(self, target: str = "cpu"):
        if target not in ("cpu", "gpu"):
            raise ValueError("target must be 'cpu' or 'gpu'")
        self.target = target

    def apply(self, ctx: Context, module: Operation) -> None:
        for func_op in list(module.walk()):
            if isinstance(func_op, FuncOp) and not func_op.is_declaration:
                self._lower_function(func_op)

    # ------------------------------------------------------------------

    def _lower_function(self, func_op: FuncOp) -> None:
        memref_of: Dict[SSAValue, SSAValue] = {}
        origin_of: Dict[SSAValue, Tuple[int, ...]] = {}
        # Judged before anything is erased.  The buffers the function writes
        # are named by every snapshot; one that is no function argument could
        # be defined after a snapshot's position, and then every load copies.
        read_only: Dict[SSAValue, bool] = {
            op.results[0]: op.read_only for op in func_op.walk()
            if isinstance(op, stencil.ExternalLoadOp)}
        written = [field.op.operands[0] for field, ro in read_only.items() if not ro]
        if not all(isinstance(value, BlockArgument)
                   and value.block is func_op.entry_block for value in written):
            read_only = dict.fromkeys(read_only, False)

        # First sweep: materialise memrefs for fields and temp snapshots, and
        # lower every apply/store pair into loop nests.
        for block in list(self._blocks(func_op)):
            for op in list(block.ops):
                if op.parent is None:
                    continue  # already erased
                if isinstance(op, stencil.ExternalLoadOp):
                    field_type: stencil.FieldType = op.results[0].type  # type: ignore[assignment]
                    cast = UnrealizedConversionCastOp(
                        [op.source], [_field_memref_type(field_type)]
                    )
                    block.insert_op_before(cast, op)
                    memref_of[op.results[0]] = cast.results[0]
                    origin_of[op.results[0]] = tuple(b[0] for b in field_type.bounds)
                elif isinstance(op, stencil.LoadOp):
                    source = memref_of[op.field]
                    temp_type: stencil.TempType = op.results[0].type  # type: ignore[assignment]
                    if read_only[op.field]:
                        snapshot = memref.SnapshotOp(source, written)
                        block.insert_op_before(snapshot, op)
                    else:
                        snapshot = memref.AllocOp(MemRefType(temp_type.shape, temp_type.element_type))
                        block.insert_op_before(snapshot, op)
                        block.insert_op_before(memref.CopyOp(source, snapshot.results[0]), op)
                    memref_of[op.results[0]] = snapshot.results[0]
                    origin_of[op.results[0]] = tuple(b[0] for b in temp_type.bounds)
                elif isinstance(op, stencil.ApplyOp):
                    self._lower_apply(op, memref_of, origin_of)

        # The stencil loads and casts are now dead (stores/applies were
        # erased above).
        eliminate_dead_code(func_op, seeds=[
            op for op in func_op.walk() if op.name.startswith("stencil.")
        ])

    @staticmethod
    def _blocks(func_op: FuncOp) -> List[Block]:
        blocks: List[Block] = []
        for op in func_op.walk():
            for region in op.regions:
                blocks.extend(region.blocks)
        return blocks

    # ------------------------------------------------------------------

    def _lower_apply(self, op: stencil.ApplyOp, memref_of, origin_of) -> None:
        block = op.parent_block()
        if block is None:
            return
        lb, ub = op.lb, op.ub
        rank = len(lb)

        # Each apply result must feed exactly one stencil.store.
        stores: List[stencil.StoreOp] = []
        for result in op.results:
            store_op = None
            for use in result.uses:
                if isinstance(use.operation, stencil.StoreOp):
                    store_op = use.operation
                    break
            if store_op is None:
                raise LoweringError("stencil.apply result has no stencil.store consumer")
            stores.append(store_op)

        builder = Builder(None)
        builder.set_insertion_point_before(op)
        lb_values = [builder.insert(arith.ConstantOp.from_int(v, index)).results[0] for v in lb]
        ub_values = [builder.insert(arith.ConstantOp.from_int(v, index)).results[0] for v in ub]
        one = builder.insert(arith.ConstantOp.from_int(1, index)).results[0]

        bodies: List[Block] = []
        ivs: List[SSAValue] = []
        if self.target == "gpu" or rank == 1:
            parallel = scf.ParallelOp(lb_values, ub_values, [one] * rank)
            builder.insert(parallel)
            bodies.append(parallel.body.block)
            ivs.extend(parallel.body.block.args)
        else:
            parallel = scf.ParallelOp([lb_values[0]], [ub_values[0]], [one])
            builder.insert(parallel)
            bodies.append(parallel.body.block)
            ivs.append(parallel.body.block.args[0])
            inner = Builder.at_end(parallel.body.block)
            for d in range(1, rank):
                for_op = inner.insert(scf.ForOp(lb_values[d], ub_values[d], one))
                bodies.append(for_op.body.block)
                ivs.append(for_op.induction_variable)
                inner = Builder.at_end(for_op.body.block)

        inner_builder = Builder.at_end(bodies[-1])

        # Translate the apply body into the innermost loop body.
        value_map: Dict[SSAValue, SSAValue] = {}
        for arg, operand in zip(op.body.block.args, op.operands):
            value_map[arg] = operand

        returned: List[SSAValue] = []
        for body_op in op.body.block.ops:
            if isinstance(body_op, stencil.ReturnOp):
                returned = [value_map[o] for o in body_op.operands]
                continue
            if isinstance(body_op, stencil.AccessOp):
                key = value_map.get(body_op.temp, body_op.temp)
                source = memref_of[key]
                origin = origin_of[key]
                indices = [
                    self._shifted_index(inner_builder, ivs[d], offset - origin[d])
                    for d, offset in enumerate(body_op.offset)
                ]
                load = inner_builder.insert(memref.LoadOp(source, indices))
                value_map[body_op.results[0]] = load.results[0]
                continue
            if isinstance(body_op, stencil.IndexOp):
                value_map[body_op.results[0]] = ivs[body_op.dim]
                continue
            clone = body_op.clone(value_map)
            inner_builder.insert(clone)

        # Store each returned value to the memref backing its target field.
        for value, store_op in zip(returned, stores):
            target = memref_of[store_op.field]
            origin = origin_of[store_op.field]
            indices = [
                self._shifted_index(inner_builder, ivs[d], -origin[d]) for d in range(rank)
            ]
            inner_builder.insert(memref.StoreOp(value, target, indices))

        # Terminate every loop body, innermost first.
        for body in bodies:
            body.add_op(scf.YieldOp([]))

        for store_op in stores:
            store_op.erase(safe=False)
        op.erase(safe=False)

    @staticmethod
    def _shifted_index(builder: Builder, iv: SSAValue, shift: int) -> SSAValue:
        if shift == 0:
            return iv
        const = builder.insert(arith.ConstantOp.from_int(abs(shift), index)).results[0]
        if shift > 0:
            return builder.insert(arith.AddiOp(iv, const)).results[0]
        return builder.insert(arith.SubiOp(iv, const)).results[0]


__all__ = ["ConvertStencilToSCFPass", "LoweringError"]
