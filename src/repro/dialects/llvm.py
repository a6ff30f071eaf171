"""A minimal ``llvm`` dialect: the pointer type.

Only the pieces needed to mirror the paper's FIR/LLVM pointer interoperability
trick are modelled: the extracted stencil functions accept ``!llvm.ptr``
arguments while the FIR module passes ``!fir.llvm_ptr`` values, the two being
semantically identical (§3).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from ..ir.types import TYPE_PARSERS, TypeAttribute


class LLVMPointerType(TypeAttribute):
    """``!llvm.ptr`` (optionally carrying a pointee type for readability)."""

    name = "llvm.ptr"

    def __init__(self, pointee: Optional[TypeAttribute] = None):
        self.pointee = pointee

    @property
    def element_type(self) -> Optional[TypeAttribute]:
        return self.pointee

    def _key(self) -> Tuple[Any, ...]:
        return (self.pointee,)

    def print(self) -> str:
        if self.pointee is None:
            return "!llvm.ptr<>"
        return f"!llvm.ptr<{self.pointee.print()}>"


def _parse_ptr(parser) -> LLVMPointerType:
    if parser.try_consume("<"):
        if parser.try_consume(">"):
            return LLVMPointerType(None)
        pointee = parser.parse_type()
        parser.expect(">")
        return LLVMPointerType(pointee)
    return LLVMPointerType(None)


TYPE_PARSERS["llvm.ptr"] = _parse_ptr

__all__ = ["LLVMPointerType"]
