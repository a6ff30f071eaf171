"""The ``math`` dialect: transcendental and other math intrinsics.

Flang lowers Fortran intrinsics such as ``sqrt``/``abs``/``exp`` to this
dialect, which is registered with ``mlir-opt`` and therefore survives the
stencil extraction unchanged (see §3 of the paper).
"""

from __future__ import annotations

from ..ir.operation import Operation, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import Pure
from ..ir.types import FloatType


class _UnaryMathOp(Operation):
    traits = (Pure,)

    def __init__(self, operand: SSAValue):
        super().__init__(operands=[operand], result_types=[operand.type])

    def verify_(self) -> None:
        if not isinstance(self.operands[0].type, FloatType):
            raise VerifyException(f"{self.name}: operand must be a float")


class SqrtOp(_UnaryMathOp):
    name = "math.sqrt"


class AbsFOp(_UnaryMathOp):
    name = "math.absf"


class SinOp(_UnaryMathOp):
    name = "math.sin"


class CosOp(_UnaryMathOp):
    name = "math.cos"


class TanOp(_UnaryMathOp):
    name = "math.tan"


class TanhOp(_UnaryMathOp):
    name = "math.tanh"


class ExpOp(_UnaryMathOp):
    name = "math.exp"


class LogOp(_UnaryMathOp):
    name = "math.log"


class Log10Op(_UnaryMathOp):
    name = "math.log10"


class PowFOp(Operation):
    """``math.powf`` — floating point exponentiation."""

    name = "math.powf"
    traits = (Pure,)

    def __init__(self, base: SSAValue, exponent: SSAValue):
        super().__init__(operands=[base, exponent], result_types=[base.type])


__all__ = [
    "SqrtOp",
    "AbsFOp",
    "SinOp",
    "CosOp",
    "TanOp",
    "TanhOp",
    "ExpOp",
    "LogOp",
    "Log10Op",
    "PowFOp",
]
