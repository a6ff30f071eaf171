"""The DMP (Distributed Memory Parallelism) dialect.

This is the xDSL dialect the paper lowers stencils through on the way to MPI
(§2.1, §4.4).  It expresses node-level parallelism in a technology-agnostic
way: a process grid decomposition of the global domain plus halo exchange
operations, without committing to MPI yet.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..ir.attributes import DenseArrayAttr, IntegerAttr
from ..ir.context import Dialect
from ..ir.operation import Operation, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import HasMemoryEffect
from ..ir.types import TypeAttribute, i64, index


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


class RankOp(Operation):
    """``dmp.rank`` — this process's coordinate along ``dim`` of the grid."""

    name = "dmp.rank"

    def __init__(self, grid: SSAValue, dim: int):
        super().__init__(
            operands=[grid],
            result_types=[index],
            attributes={"dim": IntegerAttr(dim, i64)},
        )

    @property
    def dim(self) -> int:
        return int(self.get_attr("dim").value)  # type: ignore[union-attr]


class LocalDomainOp(Operation):
    """``dmp.local_domain`` — the sub-domain bounds owned by this rank.

    Results are ``(lb, ub)`` pairs for each decomposed dimension of the global
    iteration space described by the ``global_lb`` / ``global_ub`` attributes.
    """

    name = "dmp.local_domain"

    def __init__(self, grid: SSAValue, global_lb: Sequence[int], global_ub: Sequence[int]):
        rank = len(global_lb)
        super().__init__(
            operands=[grid],
            result_types=[index] * (2 * rank),
            attributes={
                "global_lb": DenseArrayAttr(global_lb),
                "global_ub": DenseArrayAttr(global_ub),
            },
        )

    @property
    def global_lb(self) -> Tuple[int, ...]:
        return self.get_attr("global_lb").as_tuple()  # type: ignore[union-attr]

    @property
    def global_ub(self) -> Tuple[int, ...]:
        return self.get_attr("global_ub").as_tuple()  # type: ignore[union-attr]

    def verify_(self) -> None:
        rank = len(self.global_lb)
        if len(self.results) != 2 * rank:
            raise VerifyException(
                "dmp.local_domain: must produce a (lb, ub) pair per dimension"
            )


class HaloSwapOp(Operation):
    """``dmp.halo_swap`` — exchange halo regions of a field with neighbours.

    ``halo`` gives the halo width per dimension; ``decomposed_dims`` lists the
    dimensions that are split across the process grid.
    """

    name = "dmp.halo_swap"
    traits = (HasMemoryEffect,)

    def __init__(
        self,
        field: SSAValue,
        grid: SSAValue,
        halo: Sequence[int],
        decomposed_dims: Optional[Sequence[int]] = None,
    ):
        if decomposed_dims is None:
            decomposed_dims = list(range(len(halo)))
        super().__init__(
            operands=[field, grid],
            attributes={
                "halo": DenseArrayAttr(halo),
                "decomposed_dims": DenseArrayAttr(decomposed_dims),
            },
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

    @property
    def decomposed_dims(self) -> Tuple[int, ...]:
        return self.get_attr("decomposed_dims").as_tuple()  # type: ignore[union-attr]


class GatherOp(Operation):
    """``dmp.gather`` — gather a distributed field onto the root rank."""

    name = "dmp.gather"
    traits = (HasMemoryEffect,)

    def __init__(self, field: SSAValue, grid: SSAValue):
        super().__init__(operands=[field, grid])


def _parse_grid_type(parser) -> GridType:
    parser.expect("<")
    shape = parser._parse_dims() + [parser.parse_integer()]
    parser.expect(">")
    return GridType(shape)


DMP = Dialect(
    "dmp",
    [GridOp, RankOp, LocalDomainOp, HaloSwapOp, GatherOp],
    type_parsers={"grid": _parse_grid_type},
)

__all__ = [
    "GridType",
    "GridOp",
    "RankOp",
    "LocalDomainOp",
    "HaloSwapOp",
    "GatherOp",
    "DMP",
]
