"""The DMP (Distributed Memory Parallelism) dialect.

This is the xDSL dialect the paper lowers stencils through on the way to MPI
(§2.1, §4.4).  It expresses node-level parallelism in a technology-agnostic
way: a process grid decomposition of the global domain plus halo exchange
operations, without committing to MPI yet.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from ..ir.attributes import DenseArrayAttr, IntegerAttr
from ..ir.operation import Operation
from ..ir.ssa import SSAValue
from ..ir.types import TYPE_PARSERS, TypeAttribute, i32, i64


class GridType(TypeAttribute):
    """``!dmp.grid<PxQ[xR]>`` — a logical process grid."""

    name = "dmp.grid"

    def __init__(self, shape: Sequence[int]):
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)

    def _key(self) -> Tuple[Any, ...]:
        return (self.shape,)

    def print(self) -> str:
        return "!dmp.grid<" + "x".join(str(s) for s in self.shape) + ">"


class GridOp(Operation):
    """``dmp.grid`` — materialise the process grid decomposition."""

    name = "dmp.grid"

    def __init__(self, shape: Sequence[int]):
        super().__init__(
            result_types=[GridType(shape)],
            attributes={"shape": DenseArrayAttr(shape)},
        )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.get_attr("shape").as_tuple()  # type: ignore[union-attr]


class HaloSwapOp(Operation):
    """``dmp.halo_swap`` — exchange halo regions of a field with neighbours.

    ``halo`` gives the halo width per dimension; the grid splits the
    field's leading dimensions, one per grid dimension.
    """

    name = "dmp.halo_swap"

    def __init__(
        self,
        field: SSAValue,
        grid: SSAValue,
        halo: Sequence[int],
    ):
        super().__init__(
            operands=[field, grid],
            attributes={"halo": DenseArrayAttr(halo)},
        )

    @property
    def field(self) -> SSAValue:
        return self.operands[0]

    @property
    def grid(self) -> SSAValue:
        return self.operands[1]

    @property
    def halo(self) -> Tuple[int, ...]:
        return self.get_attr("halo").as_tuple()  # type: ignore[union-attr]


class NeighbourRankOp(Operation):
    """``dmp.neighbour_rank`` — rank of the neighbour in ``direction`` along
    grid dimension ``dim`` (−1 when there is no neighbour)."""

    name = "dmp.neighbour_rank"

    def __init__(self, grid: SSAValue, dim: int, direction: int):
        super().__init__(
            operands=[grid],
            result_types=[i32],
            attributes={
                "dim": IntegerAttr(dim, i64),
                "direction": IntegerAttr(direction, i64),
            },
        )


def _parse_grid_type(parser) -> GridType:
    parser.expect("<")
    shape = parser._parse_dims() + [parser.parse_integer()]
    parser.expect(">")
    return GridType(shape)


TYPE_PARSERS["dmp.grid"] = _parse_grid_type

__all__ = [
    "GridType",
    "GridOp",
    "HaloSwapOp",
    "NeighbourRankOp",
]
