"""Textual IR printer (MLIR generic operation syntax).

The printer emits every operation in the generic form::

    %0 = "arith.addf"(%1, %2) : (f64, f64) -> f64
    "func.return"(%0) : (f64) -> ()

Regions are printed inline between ``({`` and ``})``.  The output of
:func:`print_module` is accepted by :mod:`repro.ir.parser`, and the pair is
round-trip stable (property-tested).
"""

from __future__ import annotations

from io import StringIO
from typing import Dict

from .attributes import Attribute
from .operation import Block, Operation, Region
from .ssa import SSAValue


class Printer:
    """Stateful printer tracking SSA value names and indentation."""

    def __init__(self, indent_width: int = 2):
        self._out = StringIO()
        self._indent = 0
        self._indent_width = indent_width
        self._value_names: Dict[int, str] = {}
        self._used_names: set = set()
        self._next_id = 0
        self._next_block_id = 0
        self._block_names: Dict[int, str] = {}

    # -- low level emit -------------------------------------------------------

    def _emit(self, text: str) -> None:
        self._out.write(text)

    def _newline(self) -> None:
        self._out.write("\n" + " " * (self._indent * self._indent_width))

    def result(self) -> str:
        return self._out.getvalue()

    # -- naming ----------------------------------------------------------------

    def name_of(self, value: SSAValue) -> str:
        key = id(value)
        if key in self._value_names:
            return self._value_names[key]
        hint = value.name_hint
        if hint and hint not in self._used_names:
            name = hint
        else:
            name = str(self._next_id)
            self._next_id += 1
            while name in self._used_names:
                name = str(self._next_id)
                self._next_id += 1
        self._value_names[key] = name
        self._used_names.add(name)
        return name

    def block_name(self, block: Block) -> str:
        key = id(block)
        if key not in self._block_names:
            self._block_names[key] = f"bb{self._next_block_id}"
            self._next_block_id += 1
        return self._block_names[key]

    # -- structural printing -----------------------------------------------------

    def print_operation(self, op: Operation) -> None:
        if op.results:
            names = ", ".join(f"%{self.name_of(r)}" for r in op.results)
            self._emit(f"{names} = ")
        self._emit(f'"{op.name}"')
        self._emit("(")
        self._emit(", ".join(f"%{self.name_of(o)}" for o in op.operands))
        self._emit(")")

        if op.regions:
            self._emit(" (")
            for i, region in enumerate(op.regions):
                if i:
                    self._emit(", ")
                self.print_region(region)
            self._emit(")")

        if op.attributes:
            self._emit(" {")
            self._emit(", ".join(
                f'"{key}" = {self.print_attribute(value)}'
                for key, value in sorted(op.attributes.items())))
            self._emit("}")

        operand_types = ", ".join(o.type.print() for o in op.operands)
        result_types = ", ".join(r.type.print() for r in op.results)
        self._emit(f" : ({operand_types}) -> ({result_types})")

    def print_region(self, region: Region) -> None:
        self._emit("{")
        self._indent += 1
        for block in region.blocks:
            self._newline()
            self.print_block(block)
        self._indent -= 1
        self._newline()
        self._emit("}")

    def print_block(self, block: Block) -> None:
        args = ", ".join(
            f"%{self.name_of(a)} : {a.type.print()}" for a in block.args
        )
        self._emit(f"^{self.block_name(block)}({args}):")
        self._indent += 1
        for op in block.ops:
            self._newline()
            self.print_operation(op)
        self._indent -= 1

    # -- attributes ------------------------------------------------------------------

    def print_attribute(self, attr: Attribute) -> str:
        return attr.print()


def print_op(op: Operation) -> str:
    """Print a single operation (and anything nested) to a string."""
    printer = Printer()
    printer.print_operation(op)
    return printer.result()


def print_module(module: Operation) -> str:
    """Print a top-level module operation followed by a trailing newline."""
    return print_op(module) + "\n"


__all__ = ["Printer", "print_op", "print_module"]
