"""The ``scf`` dialect: structured control flow (serial and parallel loops, if).

The stencil lowering targets ``scf.parallel`` + ``scf.for`` on CPUs and a
coalesced ``scf.parallel`` on GPUs, exactly as described in §3 of the paper.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import IntegerAttr
from ..ir.operation import Block, Operation, Region, VerifyException
from ..ir.ssa import BlockArgument, SSAValue
from ..ir.traits import IsTerminator, SingleBlockRegion
from ..ir.types import IndexType, TypeAttribute, i64, index


class YieldOp(Operation):
    """``scf.yield`` — terminator of scf region bodies."""

    name = "scf.yield"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)


class ForOp(Operation):
    """``scf.for`` — a serial counted loop with optional iteration arguments."""

    name = "scf.for"
    traits = (SingleBlockRegion,)

    def __init__(
        self,
        lower_bound: SSAValue,
        upper_bound: SSAValue,
        step: SSAValue,
        iter_args: Sequence[SSAValue] = (),
        body: Optional[Region] = None,
    ):
        if body is None:
            body = Region([Block(arg_types=[index] + [v.type for v in iter_args])])
        super().__init__(
            operands=[lower_bound, upper_bound, step, *iter_args],
            result_types=[v.type for v in iter_args],
            regions=[body],
        )

    @property
    def iter_args(self) -> Sequence[SSAValue]:
        return self.operands[3:]

    @property
    def induction_variable(self) -> BlockArgument:
        return self.body.block.args[0]

    def verify_(self) -> None:
        block = self.body.block
        if not block.args or not isinstance(block.args[0].type, IndexType):
            raise VerifyException("scf.for: first block argument must be of index type")
        if len(block.args) != 1 + len(self.iter_args):
            raise VerifyException(
                "scf.for: block must have one argument per iter_arg plus the induction "
                "variable"
            )


class ParallelOp(Operation):
    """``scf.parallel`` — a multi-dimensional parallel loop nest.

    Operands are ``rank`` lower bounds, ``rank`` upper bounds and ``rank``
    steps; the body block has ``rank`` index arguments.
    """

    name = "scf.parallel"
    traits = (SingleBlockRegion,)

    def __init__(
        self,
        lower_bounds: Sequence[SSAValue],
        upper_bounds: Sequence[SSAValue],
        steps: Sequence[SSAValue],
        body: Optional[Region] = None,
    ):
        rank = len(lower_bounds)
        if len(upper_bounds) != rank or len(steps) != rank:
            raise ValueError("scf.parallel: bounds/steps must all have the same rank")
        if body is None:
            body = Region([Block(arg_types=[index] * rank)])
        super().__init__(
            operands=[*lower_bounds, *upper_bounds, *steps],
            attributes={"rank": IntegerAttr(rank, i64)},
            regions=[body],
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
        return self.operands[2 * self.rank : 3 * self.rank]

    @property
    def induction_variables(self) -> Sequence[BlockArgument]:
        return self.body.block.args

    def verify_(self) -> None:
        if len(self.operands) != 3 * self.rank:
            raise VerifyException(
                f"scf.parallel: expected {3 * self.rank} operands, got {len(self.operands)}"
            )
        block = self.body.block
        if len(block.args) != self.rank:
            raise VerifyException(
                f"scf.parallel: body must have {self.rank} index arguments"
            )
        for arg in block.args:
            if not isinstance(arg.type, IndexType):
                raise VerifyException("scf.parallel: body arguments must be of index type")


class IfOp(Operation):
    """``scf.if`` — conditional with then/else regions and optional results."""

    name = "scf.if"

    def __init__(
        self,
        condition: SSAValue,
        result_types: Sequence[TypeAttribute] = (),
        then_region: Optional[Region] = None,
        else_region: Optional[Region] = None,
    ):
        if then_region is None:
            then_region = Region([Block()])
        if else_region is None:
            else_region = Region([Block()] if result_types else [])
        super().__init__(
            operands=[condition],
            result_types=result_types,
            regions=[then_region, else_region],
        )

    @property
    def then_block(self) -> Block:
        return self.regions[0].block


__all__ = [
    "YieldOp",
    "ForOp",
    "ParallelOp",
    "IfOp",
]
