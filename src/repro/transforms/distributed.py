"""Distributed-memory lowerings: stencil → DMP → MPI (§2.1, §4.4).

``ConvertStencilToDMPPass`` decorates extracted stencil functions for execution
on a logical process grid: it derives each rank's local sub-domain from the
global apply bounds and inserts ``dmp.halo_swap`` operations before every
``stencil.apply`` so neighbouring ranks exchange boundary data.

``ConvertDMPToMPIPass`` then lowers each halo swap into explicit non-blocking
``mpi.isend``/``mpi.irecv`` pairs (one per face of each decomposed dimension)
followed by ``mpi.waitall``, using the same neighbour/tag conventions the
simulated communicator implements.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..dialects import arith, dmp, mpi, stencil
from ..dialects.func import FuncOp
from ..ir.attributes import DenseArrayAttr
from ..ir.builder import Builder
from ..ir.operation import Operation
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.ssa import OpResult, SSAValue
from ..ir.types import i32


@register_pass
class ConvertStencilToDMPPass(ModulePass):
    """``convert-stencil-to-dmp{grid=PxQ}`` — decompose stencils over a
    process grid, which splits the leading dimensions of every field."""

    name = "convert-stencil-to-dmp"

    def __init__(self, grid: Sequence[int] = (1, 1)):
        if isinstance(grid, (str, int)):  # pipeline text: "2x2", or 4
            grid = tuple(int(p) for p in str(grid).split("x"))
        if any(isinstance(p, bool) or int(p) < 1 for p in grid):
            raise ValueError(f"grid extents must be integers >= 1, got {grid}")
        self.grid = tuple(int(p) for p in grid)

    def apply(self, module: Operation) -> None:
        for func_op in list(module.walk()):
            if isinstance(func_op, FuncOp) and not func_op.is_declaration:
                self._transform_function(func_op)

    def _transform_function(self, func_op: FuncOp) -> None:
        applies = [op for op in func_op.walk() if isinstance(op, stencil.ApplyOp)]
        if not applies:
            return

        builder = Builder(None)
        builder.set_insertion_point_to_start(func_op.entry_block)
        grid_op = builder.insert(dmp.GridOp(self.grid))

        for apply_op in applies:
            rank = apply_op.rank
            # Halo width per dimension: the widest access offset used.
            halo = [0] * rank
            for op in apply_op.body.walk():
                if isinstance(op, stencil.AccessOp):
                    for d, offset in enumerate(op.offset):
                        halo[d] = max(halo[d], abs(int(offset)))
            apply_op.set_attr("dmp.halo", DenseArrayAttr(halo))
            # Swap halos of every input field before its snapshot is taken
            # (stencil.load copies the field, so the exchange must precede it).
            swapped = set()
            for operand in apply_op.operands:
                field = self._field_of_temp(operand)
                if field is None or id(field) in swapped:
                    continue
                swapped.add(id(field))
                load_op = operand.op  # the stencil.load producing this temp
                builder.set_insertion_point_before(load_op)
                builder.insert(
                    dmp.HaloSwapOp(field, grid_op.results[0], halo)
                )

    @staticmethod
    def _field_of_temp(value: SSAValue) -> Optional[SSAValue]:
        if isinstance(value, OpResult) and isinstance(value.op, stencil.LoadOp):
            return value.op.field
        return None


@register_pass
class ConvertDMPToMPIPass(ModulePass):
    """``convert-dmp-to-mpi`` — lower halo swaps to isend/irecv/waitall."""

    name = "convert-dmp-to-mpi"

    def apply(self, module: Operation) -> None:
        for swap in [op for op in module.walk() if isinstance(op, dmp.HaloSwapOp)]:
            self._lower_swap(swap)
        # Grid ops may now be dead.
        for grid_op in [op for op in module.walk() if isinstance(op, dmp.GridOp)]:
            if not any(r.has_uses for r in grid_op.results):
                grid_op.erase(safe=False)

    def _lower_swap(self, swap: dmp.HaloSwapOp) -> None:
        block = swap.parent_block()
        if block is None:
            return
        builder = Builder(None)
        builder.set_insertion_point_before(swap)
        field = swap.field
        grid_value = swap.grid
        grid_shape = self._grid_shape(grid_value)
        halo = swap.halo

        # The field's full (local, halo-included) extents come from its type.
        bounds = getattr(field.type, "bounds", None)
        extents = [ub - lb for lb, ub in bounds] if bounds is not None else []

        requests: List[SSAValue] = []
        # The grid splits the leading dimensions: grid position d is field
        # dimension d.
        for dim in range(min(len(grid_shape), len(halo))):
            width = halo[dim]
            if width == 0:
                continue
            my_coord = builder.insert(dmp.RankOp(grid_value, dim))
            for direction in (-1, +1):
                tag = dim * 2 + (0 if direction < 0 else 1)
                recv_tag = dim * 2 + (1 if direction < 0 else 0)
                neighbour = builder.insert(
                    dmp.NeighbourRankOp(grid_value, dim, direction)
                )
                send_lb, send_ub, recv_lb, recv_ub = self._slabs(
                    extents, dim, width, direction
                )
                tag_value = builder.insert(arith.ConstantOp.from_int(tag, i32)).results[0]
                recv_tag_value = builder.insert(
                    arith.ConstantOp.from_int(recv_tag, i32)
                ).results[0]
                isend = mpi.ISendOp(field, neighbour.results[0], tag_value)
                isend.set_attr("slice_lb", DenseArrayAttr(send_lb))
                isend.set_attr("slice_ub", DenseArrayAttr(send_ub))
                builder.insert(isend)
                irecv = mpi.IRecvOp(field, neighbour.results[0], recv_tag_value)
                irecv.set_attr("slice_lb", DenseArrayAttr(recv_lb))
                irecv.set_attr("slice_ub", DenseArrayAttr(recv_ub))
                builder.insert(irecv)
                requests.append(irecv.results[0])
        if requests:
            builder.insert(mpi.WaitAllOp(requests))
        swap.erase(safe=False)

    @staticmethod
    def _grid_shape(grid_value: SSAValue) -> Tuple[int, ...]:
        if isinstance(grid_value, OpResult) and isinstance(grid_value.op, dmp.GridOp):
            return grid_value.op.shape
        if isinstance(grid_value.type, dmp.GridType):
            return grid_value.type.shape
        return ()

    @staticmethod
    def _slabs(extents: Sequence[int], dim: int, width: int, direction: int):
        """Send/receive slab bounds (full extent in every other dimension)."""
        rank = len(extents)
        send_lb = [0] * rank
        send_ub = list(extents)
        recv_lb = [0] * rank
        recv_ub = list(extents)
        if direction < 0:
            send_lb[dim], send_ub[dim] = width, 2 * width
            recv_lb[dim], recv_ub[dim] = 0, width
        else:
            send_lb[dim], send_ub[dim] = extents[dim] - 2 * width, extents[dim] - width
            recv_lb[dim], recv_ub[dim] = extents[dim] - width, extents[dim]
        return send_lb, send_ub, recv_lb, recv_ub


__all__ = ["ConvertStencilToDMPPass", "ConvertDMPToMPIPass"]
