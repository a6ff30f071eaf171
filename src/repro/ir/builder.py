"""IR builder with insertion points.

The builder keeps an insertion point (a block plus position) and appends
operations there, mirroring ``mlir::OpBuilder`` / xDSL's ``Builder``.
"""

from __future__ import annotations

from typing import Optional, TypeVar

from .operation import Block, IRError, Operation

OpT = TypeVar("OpT", bound=Operation)


class InsertPoint:
    """A position inside a block: before ``anchor`` or at the block's end."""

    def __init__(self, block: Block, anchor: Optional[Operation] = None):
        self.block = block
        self.anchor = anchor

    @staticmethod
    def at_end(block: Block) -> "InsertPoint":
        return InsertPoint(block, None)

    @staticmethod
    def before(op: Operation) -> "InsertPoint":
        if op.parent is None:
            raise IRError("cannot create an insertion point before a detached op")
        return InsertPoint(op.parent, op)



class Builder:
    """Inserts operations at a movable insertion point."""

    def __init__(self, insert_point: Optional[InsertPoint] = None):
        self._insert_point = insert_point

    # -- insertion point management ---------------------------------------

    @property
    def insertion_point(self) -> InsertPoint:
        if self._insert_point is None:
            raise IRError("builder has no insertion point set")
        return self._insert_point

    def set_insertion_point_to_end(self, block: Block) -> None:
        self._insert_point = InsertPoint.at_end(block)

    def set_insertion_point_to_start(self, block: Block) -> None:
        self._insert_point = InsertPoint(block, block.first_op)

    def set_insertion_point_before(self, op: Operation) -> None:
        self._insert_point = InsertPoint.before(op)

    class _Guard:
        def __init__(self, builder: "Builder"):
            self.builder = builder
            self.saved = builder._insert_point

        def __enter__(self) -> "Builder":
            return self.builder

        def __exit__(self, *exc) -> None:
            self.builder._insert_point = self.saved

    def guarded(self) -> "_Guard":
        """Context manager restoring the insertion point on exit."""
        return Builder._Guard(self)

    # -- insertion ----------------------------------------------------------

    def insert(self, op: OpT) -> OpT:
        point = self.insertion_point
        if point.anchor is None:
            point.block.add_op(op)
        else:
            point.block.insert_op_before(op, point.anchor)
        return op

    # -- convenience --------------------------------------------------------

    @staticmethod
    def at_end(block: Block) -> "Builder":
        return Builder(InsertPoint.at_end(block))

    @staticmethod
    def at_start(block: Block) -> "Builder":
        return Builder(InsertPoint(block, block.first_op))

    @staticmethod
    def before(op: Operation) -> "Builder":
        return Builder(InsertPoint.before(op))


__all__ = ["Builder", "InsertPoint"]
