"""The ``arith`` dialect: integer/float arithmetic, comparisons and casts."""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from ..ir.attributes import Attribute, FloatAttr, IntegerAttr, StringAttr
from ..ir.operation import Operation, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import Pure
from ..ir.types import (
    FloatType,
    IndexType,
    IntegerType,
    TypeAttribute,
    f64,
    i1,
    index,
)


class ConstantOp(Operation):
    """``arith.constant`` — materialise a compile-time constant."""

    name = "arith.constant"
    traits = (Pure,)

    def __init__(self, value: Union[Attribute, int, float], type: TypeAttribute = None):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if type is None:
                type = index if isinstance(value, int) else f64
            if isinstance(type, FloatType):
                value = FloatAttr(float(value), type)
            else:
                value = IntegerAttr(int(value), type)
        if not isinstance(value, (IntegerAttr, FloatAttr)):
            raise TypeError("arith.constant expects an IntegerAttr or FloatAttr value")
        super().__init__(attributes={"value": value}, result_types=[value.type])

    @property
    def value(self) -> Attribute:
        return self.get_attr("value")

    @property
    def literal(self) -> Union[int, float]:
        return self.value.value  # type: ignore[union-attr]

    def verify_(self) -> None:
        value = self.get_attr("value")
        if not isinstance(value, (IntegerAttr, FloatAttr)):
            raise VerifyException("arith.constant 'value' must be an integer or float attr")
        if self.results[0].type != value.type:
            raise VerifyException(
                "arith.constant result type must match the value attribute type"
            )

    @staticmethod
    def from_int(value: int, type: TypeAttribute = index) -> "ConstantOp":
        return ConstantOp(IntegerAttr(value, type))

    @staticmethod
    def from_float(value: float, type: TypeAttribute = f64) -> "ConstantOp":
        return ConstantOp(FloatAttr(value, type))


class _BinaryOp(Operation):
    """Shared implementation of two-operand, one-result arithmetic ops."""

    traits = (Pure,)

    #: Set by subclasses: result type equals operand type unless overridden.
    result_is_bool = False

    def __init__(self, lhs: SSAValue, rhs: SSAValue, result_type: TypeAttribute = None,
                 attributes: Optional[Dict[str, Attribute]] = None):
        if result_type is None:
            result_type = i1 if self.result_is_bool else lhs.type
        super().__init__(operands=[lhs, rhs], result_types=[result_type],
                         attributes=attributes)

    @property
    def lhs(self) -> SSAValue:
        return self.operands[0]

    @property
    def rhs(self) -> SSAValue:
        return self.operands[1]

    #: The type classes the operands must be (``()``: any), and the words
    #: a failure says them with.
    operand_types: Tuple[type, ...] = ()
    operand_words = ""

    def verify_(self) -> None:
        try:
            lhs, rhs = self.operands
        except ValueError:
            raise VerifyException(f"{self.name}: expected 2 operands, "
                                  f"got {len(self.operands)}") from None
        lhs, rhs = lhs.type, rhs.type
        # Equal types are nearly always one object: skip Attribute.__eq__.
        if lhs is not rhs and lhs != rhs:
            raise VerifyException(
                f"{self.name}: operand types differ ({lhs.print()} vs {rhs.print()})")
        if self.operand_types and not isinstance(lhs, self.operand_types):
            raise VerifyException(f"{self.name}: operands must be {self.operand_words}")


class _FloatBinaryOp(_BinaryOp):
    operand_types, operand_words = (FloatType,), "floats"


class _IntBinaryOp(_BinaryOp):
    operand_types, operand_words = (IntegerType, IndexType), "integers or index"


class AddfOp(_FloatBinaryOp):
    name = "arith.addf"


class SubfOp(_FloatBinaryOp):
    name = "arith.subf"


class MulfOp(_FloatBinaryOp):
    name = "arith.mulf"


class DivfOp(_FloatBinaryOp):
    name = "arith.divf"


class MaximumfOp(_FloatBinaryOp):
    name = "arith.maximumf"


class MinimumfOp(_FloatBinaryOp):
    name = "arith.minimumf"


class AddiOp(_IntBinaryOp):
    name = "arith.addi"


class SubiOp(_IntBinaryOp):
    name = "arith.subi"


class MuliOp(_IntBinaryOp):
    name = "arith.muli"


class DivSIOp(_IntBinaryOp):
    name = "arith.divsi"


class RemSIOp(_IntBinaryOp):
    name = "arith.remsi"


class MaxSIOp(_IntBinaryOp):
    name = "arith.maxsi"


class MinSIOp(_IntBinaryOp):
    name = "arith.minsi"


class AndIOp(_IntBinaryOp):
    name = "arith.andi"


class OrIOp(_IntBinaryOp):
    name = "arith.ori"


class XOrIOp(_IntBinaryOp):
    name = "arith.xori"


class NegfOp(Operation):
    name = "arith.negf"
    traits = (Pure,)

    def __init__(self, operand: SSAValue):
        super().__init__(operands=[operand], result_types=[operand.type])


#: Valid comparison predicates for floats and integers respectively.
FLOAT_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")
INT_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")


class CmpfOp(_BinaryOp):
    """``arith.cmpf`` — ordered float comparison producing an ``i1``."""

    name = "arith.cmpf"
    result_is_bool = True

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        super().__init__(lhs, rhs, i1, {"predicate": StringAttr(predicate)})

    @property
    def predicate(self) -> str:
        return self.get_attr("predicate").data  # type: ignore[union-attr]

    def verify_(self) -> None:
        super().verify_()
        if self.predicate not in FLOAT_PREDICATES:
            raise VerifyException(f"arith.cmpf: invalid predicate '{self.predicate}'")


class CmpiOp(_BinaryOp):
    """``arith.cmpi`` — signed integer comparison producing an ``i1``."""

    name = "arith.cmpi"
    result_is_bool = True

    def __init__(self, predicate: str, lhs: SSAValue, rhs: SSAValue):
        super().__init__(lhs, rhs, i1, {"predicate": StringAttr(predicate)})

    @property
    def predicate(self) -> str:
        return self.get_attr("predicate").data  # type: ignore[union-attr]

    def verify_(self) -> None:
        super().verify_()
        if self.predicate not in INT_PREDICATES:
            raise VerifyException(f"arith.cmpi: invalid predicate '{self.predicate}'")


class SelectOp(Operation):
    """``arith.select`` — choose between two values based on an ``i1``."""

    name = "arith.select"
    traits = (Pure,)

    def __init__(self, condition: SSAValue, true_value: SSAValue, false_value: SSAValue):
        super().__init__(
            operands=[condition, true_value, false_value],
            result_types=[true_value.type],
        )

    def verify_(self) -> None:
        if self.operands[1].type != self.operands[2].type:
            raise VerifyException("arith.select: value operands must have the same type")


class _CastOp(Operation):
    traits = (Pure,)

    def __init__(self, operand: SSAValue, result_type: TypeAttribute):
        super().__init__(operands=[operand], result_types=[result_type])


class IndexCastOp(_CastOp):
    name = "arith.index_cast"


class SIToFPOp(_CastOp):
    name = "arith.sitofp"


class FPToSIOp(_CastOp):
    name = "arith.fptosi"


class ExtFOp(_CastOp):
    name = "arith.extf"


class TruncFOp(_CastOp):
    name = "arith.truncf"


__all__ = [
    "ConstantOp",
    "AddfOp",
    "SubfOp",
    "MulfOp",
    "DivfOp",
    "MaximumfOp",
    "MinimumfOp",
    "AddiOp",
    "SubiOp",
    "MuliOp",
    "DivSIOp",
    "RemSIOp",
    "MaxSIOp",
    "MinSIOp",
    "AndIOp",
    "OrIOp",
    "XOrIOp",
    "NegfOp",
    "CmpfOp",
    "CmpiOp",
    "SelectOp",
    "IndexCastOp",
    "SIToFPOp",
    "FPToSIOp",
    "ExtFOp",
    "TruncFOp",
    "FLOAT_PREDICATES",
    "INT_PREDICATES",
]
