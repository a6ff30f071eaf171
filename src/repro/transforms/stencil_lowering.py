"""Lower the stencil dialect to explicit scf loop nests over memrefs.

Mirrors the xDSL/Open Earth stencil lowering described in §3 of the paper:

* **CPU flavour** — the outermost dimension becomes an ``scf.parallel`` loop
  and inner dimensions become ``scf.for`` loops (amenable to OpenMP lowering
  and vectorisation of the innermost loop);
* **GPU flavour** — all dimensions are coalesced into a single
  ``scf.parallel`` nest, which ``convert-parallel-loops-to-gpu`` then maps to
  a kernel launch.

Every target runs this lowering, so no ``stencil.*`` op reaches the runtime.
``stencil.external_load`` becomes a cast of its source to a memref (one per
field: unfused applies each load it), and every other user of the field — the ``mpi.isend``/``mpi.irecv`` of a dmp halo
exchange — moves onto that memref.  ``stencil.load`` becomes a
``memref.snapshot``, preserving the dialect's value semantics.  A field the
function only reads (:attr:`stencil.ExternalLoadOp.read_only`) names the
written fields' buffers, so it copies only when, at run time, it shares memory
with one of them — an argument passed twice.  A field the function also
writes (Gauss–Seidel, or a halo exchange) names itself, so it copies unless
the runtime swaps it (:class:`repro.runtime.sweep.SwapPlan`).  Every
``stencil.apply`` result is written straight into the memref backing the
field its ``stencil.store`` targets.

Each index constant is built once: the loop bounds and steps at the top of
the function, each shift once per loop body (which the kernel compiler folds
into its slices).  So ``canonicalize`` and ``cse`` have nothing left to do on
the cpu flavour, and the cpu pipelines do not run them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..dialects import arith, memref, scf, stencil
from ..dialects.builtin import UnrealizedConversionCastOp
from ..dialects.func import FuncOp
from ..ir.attributes import IntegerAttr
from ..ir.builder import Builder
from ..ir.operation import Block, Operation
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.rewriting import erase_and_fold
from ..ir.ssa import BlockArgument, SSAValue
from ..ir.types import MemRefType, index


class LoweringError(Exception):
    """Raised when stencil IR cannot be lowered (e.g. a store-less apply, or
    a store over a window other than its apply's domain)."""


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

    def apply(self, module: Operation) -> None:
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

        top = Builder.at_start(func_op.entry_block)
        constants: Dict[int, SSAValue] = {}

        def constant(value: int) -> SSAValue:
            """The function's one ``index`` constant of ``value``."""
            if value not in constants:
                constants[value] = top.insert(
                    arith.ConstantOp.from_int(value, index)).results[0]
            return constants[value]

        # (source, memref type) -> its cast; unfused applies each load the
        # same field, and one cast in the entry block or this one serves all.
        casts: Dict[Tuple[SSAValue, MemRefType], UnrealizedConversionCastOp] = {}

        # First sweep: materialise memrefs for fields and temp snapshots, and
        # lower every apply/store pair into loop nests.
        for block in list(self._blocks(func_op)):
            for op in list(block.ops):
                if op.parent is None:
                    continue  # already erased
                if isinstance(op, stencil.ExternalLoadOp):
                    field_type: stencil.FieldType = op.results[0].type  # type: ignore[assignment]
                    key = (op.source, _field_memref_type(field_type))
                    cast = casts.get(key)
                    if cast is None or cast.parent_block() not in (
                            block, func_op.entry_block):
                        cast = casts[key] = UnrealizedConversionCastOp(
                            [op.source], [key[1]])
                        block.insert_op_before(cast, op)
                    for use in list(op.results[0].uses):
                        if not use.operation.name.startswith("stencil."):
                            use.operation.set_operand(use.index, cast.results[0])
                    memref_of[op.results[0]] = cast.results[0]
                    origin_of[op.results[0]] = tuple(b[0] for b in field_type.bounds)
                elif isinstance(op, stencil.LoadOp):
                    source = memref_of[op.field]
                    temp_type: stencil.TempType = op.results[0].type  # type: ignore[assignment]
                    snapshot = memref.SnapshotOp(
                        source, written if read_only[op.field] else [source])
                    block.insert_op_before(snapshot, op)
                    memref_of[op.results[0]] = snapshot.results[0]
                    origin_of[op.results[0]] = tuple(b[0] for b in temp_type.bounds)
                elif isinstance(op, stencil.ApplyOp):
                    self._lower_apply(op, memref_of, origin_of, constant)

        # The stencil loads and external loads are now dead (stores/applies
        # were erased above).
        erase_and_fold(func_op, seeds=[
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

    def _lower_apply(self, op: stencil.ApplyOp, memref_of, origin_of,
                     constant: Callable[[int], SSAValue]) -> None:
        block = op.parent_block()
        if block is None:
            return
        lb, ub = op.lb, op.ub
        rank = len(lb)

        # Each apply result must feed exactly one stencil.store.
        stores: List[stencil.StoreOp] = []
        for result in op.results:
            users = [use.operation for use in result.uses]
            if len(users) != 1 or not isinstance(users[0], stencil.StoreOp):
                raise LoweringError(
                    "a stencil.apply result must feed exactly one stencil.store, "
                    f"not {[user.name for user in users]}")
            store_op = users[0]
            # The loop nest writes the apply's whole domain: so must the store.
            if any(store_op.get_attr(k) != op.get_attr(k) for k in ("lb", "ub")):
                raise LoweringError(
                    "stencil.store writes a window other than its apply's domain")
            stores.append(store_op)

        builder = Builder(None)
        builder.set_insertion_point_before(op)
        lb_values = [constant(v) for v in lb]
        ub_values = [constant(v) for v in ub]
        one = constant(1)

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

        # Move the apply body into the innermost loop body, then rewrite its
        # accesses into loads and its index queries into induction variables
        # where they stand.
        value_map: Dict[SSAValue, SSAValue] = dict(zip(op.body.block.args, op.operands))
        terminator = op.body.block.last_op
        returned = list(terminator.operands)
        terminator.erase()
        inner_body = bodies[-1]
        inner_body.take_ops(op.body, value_map)
        shifted: Dict[object, SSAValue] = {}
        for body_op in inner_body.ops:
            if isinstance(body_op, stencil.AccessOp):
                builder.set_insertion_point_before(body_op)
                source = memref_of[body_op.temp]
                origin = origin_of[body_op.temp]
                indices = [
                    self._shifted_index(builder, ivs[d], offset - origin[d], shifted)
                    for d, offset in enumerate(body_op.offset)
                ]
                replacement = builder.insert(memref.LoadOp(source, indices)).results[0]
            elif isinstance(body_op, stencil.IndexOp):
                replacement = ivs[body_op.dim]
            elif self.target == "cpu" and isinstance(body_op, arith.ConstantOp):
                # One constant per spelling in the body (-0.0 is not 0.0),
                # all ``cse`` would merge; on gpu each literal stays a kernel
                # parameter of its own.
                replacement = shifted.setdefault(body_op.get_attr("value").print(),
                                                 body_op.results[0])
                if replacement is body_op.results[0]:
                    continue
            else:
                continue
            value_map[body_op.results[0]] = replacement
            body_op.results[0].replace_all_uses_with(replacement)
            body_op.erase()
        returned = [value_map.get(value, value) for value in returned]
        inner_builder = Builder.at_end(inner_body)

        # Store each returned value to the memref backing its target field.
        for value, store_op in zip(returned, stores):
            target = memref_of[store_op.field]
            origin = origin_of[store_op.field]
            indices = [
                self._shifted_index(inner_builder, ivs[d], -origin[d], shifted)
                for d in range(rank)
            ]
            inner_builder.insert(memref.StoreOp(value, target, indices))

        # Terminate every loop body, innermost first.
        for body in bodies:
            body.add_op(scf.YieldOp([]))

        for store_op in stores:
            store_op.erase(safe=False)
        op.erase(safe=False)

    @staticmethod
    def _shifted_index(builder: Builder, iv: SSAValue, shift: int,
                       shifted: Dict[object, SSAValue]) -> SSAValue:
        """``iv + shift``, built once per loop body where ``cse`` would keep
        it: ``shifted`` holds the body's indices by ``(iv, shift)`` and its
        constants by their printed value.  No pipeline runs ``cse`` after
        this."""
        if shift == 0:
            return iv
        if (iv, shift) not in shifted:
            value = IntegerAttr(abs(shift), index)
            if value.print() not in shifted:
                shifted[value.print()] = builder.insert(
                    arith.ConstantOp(value)).results[0]
            cls = arith.AddiOp if shift > 0 else arith.SubiOp
            shifted[iv, shift] = builder.insert(
                cls(iv, shifted[value.print()])).results[0]
        return shifted[iv, shift]


__all__ = ["ConvertStencilToSCFPass", "LoweringError"]
