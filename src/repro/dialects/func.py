"""The ``func`` dialect: functions and returns."""

from __future__ import annotations

from typing import Optional, Sequence

from ..ir.attributes import StringAttr, TypeAttr
from ..ir.operation import Block, Operation, Region, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import IsTerminator, IsolatedFromAbove, SymbolOpInterface
from ..ir.types import FunctionType, TypeAttribute


class FuncOp(Operation):
    """``func.func`` — a named function.

    A function with an empty body region acts as a declaration (external
    symbol), which is how the FIR module references the extracted stencil
    functions in the paper's flow.
    """

    name = "func.func"
    traits = (IsolatedFromAbove, SymbolOpInterface)

    def __init__(
        self,
        sym_name: str,
        function_type: FunctionType,
        body: Optional[Region] = None,
    ):
        attributes = {
            "sym_name": StringAttr(sym_name),
            "function_type": TypeAttr(function_type),
        }
        if body is None:
            body = Region()
        super().__init__(attributes=attributes, regions=[body])

    @staticmethod
    def build(
        sym_name: str,
        arg_types: Sequence[TypeAttribute],
        result_types: Sequence[TypeAttribute],
    ) -> "FuncOp":
        """Create a function with an entry block whose args match the signature."""
        func_type = FunctionType(arg_types, result_types)
        region = Region([Block(arg_types=arg_types)])
        return FuncOp(sym_name, func_type, region)

    @staticmethod
    def declaration(
        sym_name: str,
        arg_types: Sequence[TypeAttribute],
        result_types: Sequence[TypeAttribute],
    ) -> "FuncOp":
        return FuncOp(sym_name, FunctionType(arg_types, result_types))

    @property
    def sym_name(self) -> str:
        return self.get_attr("sym_name").data  # type: ignore[union-attr]

    @property
    def function_type(self) -> FunctionType:
        return self.get_attr("function_type").type  # type: ignore[union-attr]

    @property
    def is_declaration(self) -> bool:
        return len(self.body.blocks) == 0

    @property
    def entry_block(self) -> Block:
        return self.body.blocks[0]

    def verify_(self) -> None:
        if self.is_declaration:
            return
        entry = self.entry_block
        expected = self.function_type.inputs
        actual = tuple(a.type for a in entry.args)
        if expected != actual:
            raise VerifyException(
                f"func.func @{self.sym_name}: entry block argument types "
                f"{[t.print() for t in actual]} do not match the signature "
                f"{[t.print() for t in expected]}"
            )


class ReturnOp(Operation):
    """``func.return`` — terminate a function, yielding its results."""

    name = "func.return"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)

    def verify_(self) -> None:
        parent = self.parent_op()
        if isinstance(parent, FuncOp):
            expected = parent.function_type.results
            actual = tuple(o.type for o in self.operands)
            if expected != actual:
                raise VerifyException(
                    f"func.return: operand types {[t.print() for t in actual]} do not "
                    f"match function results {[t.print() for t in expected]}"
                )


def enclosing_func(op: Operation) -> Optional[FuncOp]:
    """The function whose body holds ``op`` (None outside every one)."""
    parent = op.parent_op()
    while parent is not None and not isinstance(parent, FuncOp):
        parent = parent.parent_op()
    return parent


__all__ = ["FuncOp", "ReturnOp", "Func", "enclosing_func"]
