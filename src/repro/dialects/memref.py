"""The ``memref`` dialect: allocation, load/store and shape queries."""

from __future__ import annotations

from typing import Sequence

from ..ir.attributes import IntegerAttr, UnitAttr
from ..ir.context import Dialect
from ..ir.operation import Operation, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import HasMemoryEffect, Pure, ReadOnly
from ..ir.types import DYNAMIC, IndexType, MemRefType, i64, index


class AllocOp(Operation):
    """``memref.alloc`` — heap allocation of a memref."""

    name = "memref.alloc"
    traits = (HasMemoryEffect,)

    def __init__(self, result_type: MemRefType, dynamic_sizes: Sequence[SSAValue] = ()):
        super().__init__(operands=dynamic_sizes, result_types=[result_type])

    @property
    def memref_type(self) -> MemRefType:
        return self.results[0].type  # type: ignore[return-value]

    def verify_(self) -> None:
        mtype = self.results[0].type
        if not isinstance(mtype, MemRefType):
            raise VerifyException(f"{self.name}: result must be a memref")
        dynamic = sum(1 for s in mtype.shape if s == DYNAMIC)
        if dynamic != len(self.operands):
            raise VerifyException(
                f"{self.name}: expected {dynamic} dynamic size operands, "
                f"got {len(self.operands)}"
            )


class AllocaOp(AllocOp):
    """``memref.alloca`` — stack allocation of a memref."""

    name = "memref.alloca"


class DeallocOp(Operation):
    """``memref.dealloc`` — free a heap allocation."""

    name = "memref.dealloc"
    traits = (HasMemoryEffect,)

    def __init__(self, memref: SSAValue):
        super().__init__(operands=[memref])

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]


class LoadOp(Operation):
    """``memref.load`` — read one element."""

    name = "memref.load"
    traits = (ReadOnly,)

    def __init__(self, memref: SSAValue, indices: Sequence[SSAValue]):
        if not isinstance(memref.type, MemRefType):
            raise TypeError("memref.load expects a memref operand")
        super().__init__(
            operands=[memref, *indices], result_types=[memref.type.element_type]
        )

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]

    @property
    def indices(self) -> Sequence[SSAValue]:
        return self.operands[1:]

    def verify_(self) -> None:
        mtype = self.operands[0].type
        if not isinstance(mtype, MemRefType):
            raise VerifyException("memref.load: first operand must be a memref")
        if len(self.indices) != mtype.rank:
            raise VerifyException(
                f"memref.load: expected {mtype.rank} indices, got {len(self.indices)}"
            )
        for idx in self.indices:
            if not isinstance(idx.type, IndexType):
                raise VerifyException("memref.load: indices must be of index type")


class StoreOp(Operation):
    """``memref.store`` — write one element."""

    name = "memref.store"
    traits = (HasMemoryEffect,)

    def __init__(self, value: SSAValue, memref: SSAValue, indices: Sequence[SSAValue]):
        super().__init__(operands=[value, memref, *indices])

    @property
    def value(self) -> SSAValue:
        return self.operands[0]

    @property
    def memref(self) -> SSAValue:
        return self.operands[1]

    @property
    def indices(self) -> Sequence[SSAValue]:
        return self.operands[2:]

    def verify_(self) -> None:
        mtype = self.operands[1].type
        if not isinstance(mtype, MemRefType):
            raise VerifyException("memref.store: second operand must be a memref")
        if len(self.indices) != mtype.rank:
            raise VerifyException(
                f"memref.store: expected {mtype.rank} indices, got {len(self.indices)}"
            )
        if self.operands[0].type != mtype.element_type:
            raise VerifyException(
                "memref.store: value type must match the memref element type"
            )


class DimOp(Operation):
    """``memref.dim`` — query the extent of one dimension."""

    name = "memref.dim"
    traits = (Pure,)

    def __init__(self, memref: SSAValue, dimension: SSAValue):
        super().__init__(operands=[memref, dimension], result_types=[index])

    @property
    def memref(self) -> SSAValue:
        return self.operands[0]

    @property
    def dimension(self) -> SSAValue:
        return self.operands[1]


class CopyOp(Operation):
    """``memref.copy`` — copy the contents of one memref into another."""

    name = "memref.copy"
    traits = (HasMemoryEffect,)

    def __init__(self, source: SSAValue, target: SSAValue):
        super().__init__(operands=[source, target])

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def target(self) -> SSAValue:
        return self.operands[1]


class SnapshotOp(Operation):
    """``memref.snapshot`` — ``source`` as it is now, for a reader that runs
    while ``written`` are stored to: a private copy when ``source`` may share
    memory with one of them at run time, ``source`` itself when it cannot.
    (Not upstream: ``bufferization.clone`` told which writers to survive.)"""

    name = "memref.snapshot"
    traits = (ReadOnly,)

    def __init__(self, source: SSAValue, written: Sequence[SSAValue]):
        super().__init__(operands=[source, *written], result_types=[source.type])


class CastOp(Operation):
    """``memref.cast`` — reinterpret a memref with a compatible type."""

    name = "memref.cast"
    traits = (Pure,)

    def __init__(self, source: SSAValue, result_type: MemRefType):
        super().__init__(operands=[source], result_types=[result_type])

    @property
    def source(self) -> SSAValue:
        return self.operands[0]


MemRef = Dialect(
    "memref",
    [AllocOp, AllocaOp, DeallocOp, LoadOp, StoreOp, DimOp, CopyOp, SnapshotOp,
     CastOp],
)

__all__ = [
    "AllocOp",
    "AllocaOp",
    "DeallocOp",
    "LoadOp",
    "StoreOp",
    "DimOp",
    "CopyOp",
    "SnapshotOp",
    "CastOp",
    "MemRef",
]
