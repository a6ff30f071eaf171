"""The FIR dialect — Flang's Fortran IR (the subset this flow manipulates).

Flang lowers parsed Fortran to FIR; our mini-Flang frontend
(:mod:`repro.frontend`) produces the same idioms:

* scalar and loop variables live in ``fir.alloca`` slots and are accessed via
  ``fir.load`` / ``fir.store``,
* arrays are ``fir.alloca`` (stack) or ``fir.allocmem`` (heap) of
  ``!fir.array<...>`` sequence types,
* array element addresses are computed with ``fir.coordinate_of``,
* counted loops are ``fir.do_loop`` with an ``index`` block argument,
* ``fir.convert`` performs Fortran's implicit numeric conversions and
  reduces array references to ``!fir.llvm_ptr`` for extracted functions (§3),
* ``fir.if`` holds conditionals and ``fir.call`` calls.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

from ..ir.attributes import StringAttr, TypeAttr
from ..ir.operation import Block, Operation, Region, VerifyException
from ..ir.ssa import BlockArgument, SSAValue
from ..ir.traits import IsTerminator, Pure, ReadOnly, SingleBlockRegion
from ..ir.types import DYNAMIC, TYPE_PARSERS, IndexType, TypeAttribute, index


# ---------------------------------------------------------------------------
# FIR types
# ---------------------------------------------------------------------------


class ReferenceType(TypeAttribute):
    """``!fir.ref<T>`` — the address of a T in memory."""

    name = "fir.ref"

    def __init__(self, element_type: TypeAttribute):
        self.element_type = element_type

    def _key(self) -> Tuple[Any, ...]:
        return (self.element_type,)

    def print(self) -> str:
        return f"!fir.ref<{self.element_type.print()}>"


class HeapType(TypeAttribute):
    """``!fir.heap<T>`` — a heap allocation of T (result of ``fir.allocmem``)."""

    name = "fir.heap"

    def __init__(self, element_type: TypeAttribute):
        self.element_type = element_type

    def _key(self) -> Tuple[Any, ...]:
        return (self.element_type,)

    def print(self) -> str:
        return f"!fir.heap<{self.element_type.print()}>"


class SequenceType(TypeAttribute):
    """``!fir.array<d0 x d1 x ... x T>`` — a Fortran array value type.

    Extents use :data:`repro.ir.types.DYNAMIC` for assumed/deferred shapes.
    Fortran is column-major; the shape here is stored in *declaration order*
    (first extent varies fastest), matching Flang.
    """

    name = "fir.array"

    def __init__(self, shape: Sequence[int], element_type: TypeAttribute):
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.element_type = element_type

    @property
    def rank(self) -> int:
        return len(self.shape)

    def has_static_shape(self) -> bool:
        return all(s != DYNAMIC for s in self.shape)

    def num_elements(self) -> Optional[int]:
        if not self.has_static_shape():
            return None
        total = 1
        for extent in self.shape:
            total *= extent
        return total

    def _key(self) -> Tuple[Any, ...]:
        return (self.shape, self.element_type)

    def print(self) -> str:
        dims = "x".join("?" if s == DYNAMIC else str(s) for s in self.shape)
        return f"!fir.array<{dims}x{self.element_type.print()}>"


class LLVMPointerType(TypeAttribute):
    """``!fir.llvm_ptr<T>`` — FIR's view of an LLVM pointer.

    The paper relies on the fact that this is semantically identical to the
    ``llvm`` dialect pointer, so an FIR module can pass one to an extracted
    stencil function that accepts the LLVM form (see §3).
    """

    name = "fir.llvm_ptr"

    def __init__(self, element_type: TypeAttribute):
        self.element_type = element_type

    def _key(self) -> Tuple[Any, ...]:
        return (self.element_type,)

    def print(self) -> str:
        return f"!fir.llvm_ptr<{self.element_type.print()}>"


def is_reference_like(t: TypeAttribute) -> bool:
    """References, heap pointers and llvm_ptrs all address memory."""
    return isinstance(t, (ReferenceType, HeapType, LLVMPointerType))


def element_type_of(t: TypeAttribute) -> TypeAttribute:
    """The pointee of a reference-like type, looking through sequences."""
    if is_reference_like(t):
        inner = t.element_type  # type: ignore[union-attr]
        if isinstance(inner, SequenceType):
            return inner.element_type
        return inner
    if isinstance(t, SequenceType):
        return t.element_type
    raise TypeError(f"type {t.print()} has no element type")


def array_shape_of(t: TypeAttribute) -> Optional[Tuple[int, ...]]:
    """The declared shape behind a reference-like type, or None for scalars."""
    if is_reference_like(t):
        inner = t.element_type  # type: ignore[union-attr]
        if isinstance(inner, SequenceType):
            return inner.shape
        return None
    if isinstance(t, SequenceType):
        return t.shape
    return None


# ---------------------------------------------------------------------------
# FIR operations
# ---------------------------------------------------------------------------


class AllocaOp(Operation):
    """``fir.alloca`` — stack allocation; result is ``!fir.ref<in_type>``."""

    name = "fir.alloca"

    def __init__(
        self,
        in_type: TypeAttribute,
        uniq_name: Optional[str] = None,
        dynamic_extents: Sequence[SSAValue] = (),
    ):
        attributes = {"in_type": TypeAttr(in_type)}
        if uniq_name is not None:
            attributes["uniq_name"] = StringAttr(uniq_name)
        super().__init__(
            operands=dynamic_extents,
            result_types=[ReferenceType(in_type)],
            attributes=attributes,
        )

    @property
    def in_type(self) -> TypeAttribute:
        return self.get_attr("in_type").type  # type: ignore[union-attr]

    def verify_(self) -> None:
        result_type = self.results[0].type
        if not isinstance(result_type, ReferenceType):
            raise VerifyException("fir.alloca: result must be a !fir.ref")
        if result_type.element_type != self.in_type:
            raise VerifyException("fir.alloca: result pointee must equal in_type")


class AllocMemOp(Operation):
    """``fir.allocmem`` — heap allocation; result is ``!fir.heap<in_type>``."""

    name = "fir.allocmem"

    def __init__(
        self,
        in_type: TypeAttribute,
        uniq_name: Optional[str] = None,
        dynamic_extents: Sequence[SSAValue] = (),
    ):
        attributes = {"in_type": TypeAttr(in_type)}
        if uniq_name is not None:
            attributes["uniq_name"] = StringAttr(uniq_name)
        super().__init__(
            operands=dynamic_extents,
            result_types=[HeapType(in_type)],
            attributes=attributes,
        )


class FreeMemOp(Operation):
    """``fir.freemem`` — release a heap allocation."""

    name = "fir.freemem"

    def __init__(self, heapref: SSAValue):
        super().__init__(operands=[heapref])


class DeclareOp(Operation):
    """``fir.declare`` — bind a memory reference to a source-level variable name."""

    name = "fir.declare"
    traits = (Pure,)

    def __init__(self, memref: SSAValue, uniq_name: str):
        super().__init__(
            operands=[memref],
            result_types=[memref.type],
            attributes={"uniq_name": StringAttr(uniq_name)},
        )

    @property
    def uniq_name(self) -> str:
        return self.get_attr("uniq_name").data  # type: ignore[union-attr]


class LoadOp(Operation):
    """``fir.load`` — read a value from a reference."""

    name = "fir.load"
    traits = (ReadOnly,)

    def __init__(self, memref: SSAValue):
        if not is_reference_like(memref.type):
            raise TypeError(
                f"fir.load expects a reference-like operand, got {memref.type.print()}"
            )
        pointee = memref.type.element_type  # type: ignore[union-attr]
        super().__init__(operands=[memref], result_types=[pointee])

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]


class StoreOp(Operation):
    """``fir.store`` — write a value through a reference."""

    name = "fir.store"

    def __init__(self, value: SSAValue, memref: SSAValue):
        super().__init__(operands=[value, memref])

    @property
    def value(self) -> SSAValue:
        return self.operands[0]

    @property
    def memref(self) -> SSAValue:
        return self.operands[1]

    def verify_(self) -> None:
        ref_type = self.operands[1].type
        if not is_reference_like(ref_type):
            raise VerifyException("fir.store: second operand must be reference-like")


class CoordinateOfOp(Operation):
    """``fir.coordinate_of`` — compute the address of an array element.

    Operands are the array reference followed by one zero-based ``index``
    per dimension (in Fortran declaration order, i.e. first index varies
    fastest).  The result is a reference to the element.
    """

    name = "fir.coordinate_of"
    traits = (Pure,)

    def __init__(self, ref: SSAValue, indices: Sequence[SSAValue]):
        elem = element_type_of(ref.type)
        super().__init__(operands=[ref, *indices], result_types=[ReferenceType(elem)])

    @property
    def ref(self) -> SSAValue:
        return self.operands[0]

    @property
    def indices(self) -> Sequence[SSAValue]:
        return self.operands[1:]

    def verify_(self) -> None:
        if not is_reference_like(self.operands[0].type):
            raise VerifyException(
                "fir.coordinate_of: first operand must be reference-like"
            )
        shape = array_shape_of(self.operands[0].type)
        if shape is not None and len(self.indices) != len(shape):
            raise VerifyException(
                f"fir.coordinate_of: expected {len(shape)} indices, got {len(self.indices)}"
            )


class ResultOp(Operation):
    """``fir.result`` — terminator of ``fir.do_loop`` / ``fir.if`` bodies."""

    name = "fir.result"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue] = ()):
        super().__init__(operands=values)


class DoLoopOp(Operation):
    """``fir.do_loop`` — Fortran counted DO loop.

    Operands are lower bound, upper bound (inclusive, Fortran semantics) and
    step, all of ``index`` type.  The single body block receives the loop
    index as its argument.
    """

    name = "fir.do_loop"
    traits = (SingleBlockRegion,)

    def __init__(
        self,
        lower_bound: SSAValue,
        upper_bound: SSAValue,
        step: SSAValue,
        body: Optional[Region] = None,
    ):
        if body is None:
            body = Region([Block(arg_types=[index])])
        super().__init__(operands=[lower_bound, upper_bound, step], regions=[body])

    @property
    def lower_bound(self) -> SSAValue:
        return self.operands[0]

    @property
    def upper_bound(self) -> SSAValue:
        return self.operands[1]

    @property
    def step(self) -> SSAValue:
        return self.operands[2]

    @property
    def induction_variable(self) -> BlockArgument:
        return self.body.block.args[0]

    def verify_(self) -> None:
        block = self.body.block
        if len(block.args) != 1 or not isinstance(block.args[0].type, IndexType):
            raise VerifyException(
                "fir.do_loop: body block must have exactly one index argument"
            )


class IfOp(Operation):
    """``fir.if`` — conditional execution in FIR."""

    name = "fir.if"

    def __init__(
        self,
        condition: SSAValue,
        then_region: Optional[Region] = None,
        else_region: Optional[Region] = None,
    ):
        if then_region is None:
            then_region = Region([Block()])
        if else_region is None:
            else_region = Region()
        super().__init__(operands=[condition], regions=[then_region, else_region])


class ConvertOp(Operation):
    """``fir.convert`` — numeric / reference conversions.

    This is also the operation Flang uses to reduce array references to
    ``!fir.llvm_ptr`` values when interfacing with foreign code, which is how
    the extracted stencil functions receive their data (see §3).
    """

    name = "fir.convert"
    traits = (Pure,)

    def __init__(self, value: SSAValue, result_type: TypeAttribute):
        super().__init__(operands=[value], result_types=[result_type])

    @property
    def value(self) -> SSAValue:
        return self.operands[0]


class CallOp(Operation):
    """``fir.call`` — call a function from FIR."""

    name = "fir.call"

    def __init__(
        self,
        callee: str,
        arguments: Sequence[SSAValue],
        result_types: Sequence[TypeAttribute] = (),
    ):
        from ..ir.attributes import SymbolRefAttr

        super().__init__(
            operands=arguments,
            result_types=result_types,
            attributes={"callee": SymbolRefAttr(callee)},
        )

    @property
    def callee(self) -> str:
        return self.get_attr("callee").root  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Textual type parsers
# ---------------------------------------------------------------------------


def _parse_ref(parser) -> ReferenceType:
    parser.expect("<")
    elem = parser.parse_type()
    parser.expect(">")
    return ReferenceType(elem)


def _parse_heap(parser) -> HeapType:
    parser.expect("<")
    elem = parser.parse_type()
    parser.expect(">")
    return HeapType(elem)


def _parse_llvm_ptr(parser) -> LLVMPointerType:
    parser.expect("<")
    elem = parser.parse_type()
    parser.expect(">")
    return LLVMPointerType(elem)


def _parse_array(parser) -> SequenceType:
    shape, elem = parser._parse_shaped_body()
    return SequenceType(shape, elem)


TYPE_PARSERS.update({
    "fir.ref": _parse_ref,
    "fir.heap": _parse_heap,
    "fir.llvm_ptr": _parse_llvm_ptr,
    "fir.array": _parse_array,
})

__all__ = [
    "ReferenceType",
    "HeapType",
    "SequenceType",
    "LLVMPointerType",
    "is_reference_like",
    "element_type_of",
    "array_shape_of",
    "AllocaOp",
    "AllocMemOp",
    "FreeMemOp",
    "DeclareOp",
    "LoadOp",
    "StoreOp",
    "CoordinateOfOp",
    "ResultOp",
    "DoLoopOp",
    "IfOp",
    "ConvertOp",
    "CallOp",
]
