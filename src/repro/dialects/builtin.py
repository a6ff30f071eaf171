"""The builtin dialect: module container and unrealized conversion casts."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..ir.attributes import Attribute, StringAttr
from ..ir.operation import Block, Operation, Region
from ..ir.ssa import SSAValue
from ..ir.traits import IsolatedFromAbove, Pure, SingleBlockRegion
from ..ir.types import TypeAttribute


class ModuleOp(Operation):
    """Top-level container of functions and globals (``builtin.module``)."""

    name = "builtin.module"
    traits = (SingleBlockRegion, IsolatedFromAbove)

    def __init__(
        self,
        ops: Sequence[Operation] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        sym_name: Optional[str] = None,
    ):
        attributes = dict(attributes or {})
        if sym_name is not None:
            attributes["sym_name"] = StringAttr(sym_name)
        block = Block(ops=ops)
        super().__init__(attributes=attributes, regions=[Region([block])])

    @property
    def ops(self):
        return self.body.block.ops

    def add_op(self, op: Operation) -> None:
        self.body.block.add_op(op)

    def get_symbol(self, name: str) -> Optional[Operation]:
        """Find a directly nested operation whose ``sym_name`` is ``name``."""
        for op in self.ops:
            sym = op.get_attr_or_none("sym_name")
            if isinstance(sym, StringAttr) and sym.data == name:
                return op
        return None


class UnrealizedConversionCastOp(Operation):
    """Type-system escape hatch converting values between incompatible types."""

    name = "builtin.unrealized_conversion_cast"
    traits = (Pure,)

    def __init__(self, inputs: Sequence[SSAValue], result_types: Sequence[TypeAttribute]):
        super().__init__(operands=inputs, result_types=result_types)


__all__ = ["ModuleOp", "UnrealizedConversionCastOp", "Builtin"]
