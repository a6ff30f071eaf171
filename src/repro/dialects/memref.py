"""The ``memref`` dialect: element load/store and snapshots."""

from __future__ import annotations

from typing import Sequence

from ..ir.operation import Operation, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import ReadOnly
from ..ir.types import IndexType, MemRefType


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
    def indices(self) -> Sequence[SSAValue]:
        return self.operands[1:]

    def verify_(self) -> None:
        operands = self.operands
        mtype, indices = operands[0].type, operands[1:]
        if not isinstance(mtype, MemRefType):
            raise VerifyException("memref.load: first operand must be a memref")
        if len(indices) != mtype.rank:
            raise VerifyException(
                f"memref.load: expected {mtype.rank} indices, got {len(indices)}"
            )
        for idx in indices:
            if not isinstance(idx.type, IndexType):
                raise VerifyException("memref.load: indices must be of index type")


class StoreOp(Operation):
    """``memref.store`` — write one element."""

    name = "memref.store"

    def __init__(self, value: SSAValue, memref: SSAValue, indices: Sequence[SSAValue]):
        super().__init__(operands=[value, memref, *indices])

    @property
    def indices(self) -> Sequence[SSAValue]:
        return self.operands[2:]

    def verify_(self) -> None:
        operands = self.operands
        mtype, indices = operands[1].type, operands[2:]
        if not isinstance(mtype, MemRefType):
            raise VerifyException("memref.store: second operand must be a memref")
        if len(indices) != mtype.rank:
            raise VerifyException(
                f"memref.store: expected {mtype.rank} indices, got {len(indices)}"
            )
        if operands[0].type != mtype.element_type:
            raise VerifyException(
                "memref.store: value type must match the memref element type"
            )


class SnapshotOp(Operation):
    """``memref.snapshot`` — ``source`` as it is now, for a reader that runs
    while ``written`` are stored to: a private copy when ``source`` may share
    memory with one of them at run time, ``source`` itself when it cannot.
    (Not upstream: ``bufferization.clone`` told which writers to survive.)"""

    name = "memref.snapshot"
    traits = (ReadOnly,)

    def __init__(self, source: SSAValue, written: Sequence[SSAValue]):
        super().__init__(operands=[source, *written], result_types=[source.type])


__all__ = [
    "LoadOp",
    "StoreOp",
    "SnapshotOp",
]
