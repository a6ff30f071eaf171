"""The ``omp`` dialect: OpenMP shared-memory parallelism (subset).

``convert-scf-to-openmp`` lowers ``scf.parallel`` into an ``omp.parallel``
region containing an ``omp.wsloop`` worksharing loop, which is the structure
the paper's multithreaded CPU results rely on (Figures 3 and 4).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import IntegerAttr
from ..ir.context import Dialect
from ..ir.operation import Block, Operation, Region, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import IsTerminator, SingleBlockRegion
from ..ir.types import i64, index


class ParallelOp(Operation):
    """``omp.parallel`` — fork a team of threads executing the region."""

    name = "omp.parallel"
    traits = (SingleBlockRegion,)

    def __init__(self, body: Optional[Region] = None):
        if body is None:
            body = Region([Block()])
        super().__init__(regions=[body])


class WsLoopOp(Operation):
    """``omp.wsloop`` — a work-shared loop nest over ``rank`` dimensions.

    Mirrors the structure of ``scf.parallel``: operands are lower bounds,
    upper bounds and steps; the body receives ``rank`` index arguments and is
    terminated by ``omp.yield``.  It carries no schedule clause: the tiled
    parallel executor always splits the outermost loop dimension statically,
    OpenMP's default.
    """

    name = "omp.wsloop"
    traits = (SingleBlockRegion,)

    def __init__(
        self,
        lower_bounds: Sequence[SSAValue],
        upper_bounds: Sequence[SSAValue],
        steps: Sequence[SSAValue],
        body: Optional[Region] = None,
    ):
        rank = len(lower_bounds)
        if body is None:
            body = Region([Block(arg_types=[index] * rank)])
        super().__init__(
            operands=[*lower_bounds, *upper_bounds, *steps],
            regions=[body],
            attributes={"rank": IntegerAttr(rank, i64)},
        )

    @property
    def rank(self) -> int:
        return int(self.get_attr("rank").value)  # type: ignore[union-attr]

    @property
    def lower_bounds(self) -> Sequence[SSAValue]:
        return self.operands[: self.rank]

    @property
    def upper_bounds(self) -> Sequence[SSAValue]:
        return self.operands[self.rank : 2 * self.rank]

    @property
    def steps(self) -> Sequence[SSAValue]:
        return self.operands[2 * self.rank :]

    def verify_(self) -> None:
        if len(self.operands) != 3 * self.rank:
            raise VerifyException("omp.wsloop: expected 3*rank operands")
        if len(self.body.block.args) != self.rank:
            raise VerifyException("omp.wsloop: body must have rank index arguments")


class YieldOp(Operation):
    """``omp.yield`` — terminator of ``omp.wsloop`` bodies."""

    name = "omp.yield"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)


class TerminatorOp(Operation):
    """``omp.terminator`` — terminator of ``omp.parallel`` regions."""

    name = "omp.terminator"
    traits = (IsTerminator,)

    def __init__(self):
        super().__init__()


OMP = Dialect("omp", [ParallelOp, WsLoopOp, YieldOp, TerminatorOp])

__all__ = ["ParallelOp", "WsLoopOp", "YieldOp", "TerminatorOp", "OMP"]
