"""SSA values and use-def chains.

Every value in the IR is either the result of an operation (:class:`OpResult`)
or a block argument (:class:`BlockArgument`).  Values track their uses so that
rewrites can replace values globally and the verifier can detect dangling uses.

Every mutation of attached IR marks what it touched (:func:`mark`) on the
operations themselves: ``verify()`` re-checks the marked operations of a root
and skips its clean subtrees.  Building detached IR marks nothing: a new
operation starts out :data:`MOVED`, as one never verified.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from .attributes import TypeAttribute

if TYPE_CHECKING:  # pragma: no cover
    from .operation import Block, Operation


#: The bits of ``Operation._dirty``, 0 once a ``verify()`` of its top-level
#: root passed.  ``BELOW``: some operation nested in it is marked.
#: ``CHANGED``: its operands, attributes or block arguments changed, or a
#: block of its gained or lost an operation; re-check the operation itself.
#: ``MOVED``: it is new, entered or left a block, or gained a block or
#: region; re-check it and everything nested in it.
BELOW, CHANGED, MOVED = 1, 2, 4


def mark(op: "Operation", kind: int) -> None:
    """Add ``kind`` to ``op``'s marks and ``BELOW`` to its ancestors'.

    An operation with a mark has marked ancestors, so the climb stops at the
    first one already marked: O(1) amortized per mutation."""
    if op._dirty:
        op._dirty |= kind
        return
    op._dirty = kind
    block = op.parent
    while block is not None:
        region = block.parent
        if region is None:
            return
        op = region.parent
        if op is None or op._dirty:
            return
        op._dirty = BELOW
        block = op.parent


class Use:
    """One operand slot: operand ``index`` of ``operation``, which creates
    it once and owns it (``op._uses[index]``); a value's ``uses`` is keyed by
    that object, so a slot is found by identity, never compared."""

    __slots__ = ("operation", "index")

    def __init__(self, operation: "Operation", index: int):
        self.operation = operation
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover
        return f"Use({self.operation.name}, operand {self.index})"


class SSAValue:
    """Base class for any value usable as an operand."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, type: TypeAttribute):
        if not isinstance(type, TypeAttribute):
            raise TypeError(
                f"SSA value type must be a TypeAttribute, got {type!r}"
            )
        self.type = type
        #: The operand slots using this value, in registration order: a
        #: mapping, so add / remove / ``in`` are O(1); iterate or ``len()`` it.
        self.uses: Dict[Use, None] = {}
        #: Optional human-readable name used by the printer (e.g. ``%result``).
        self.name_hint: Optional[str] = None

    # -- use management ------------------------------------------------

    def remove_use(self, use: Use) -> None:
        try:
            del self.uses[use]
        except KeyError:
            raise ValueError(
                "attempting to remove a use that is not registered") from None
        op = use.operation
        if op._dirty:  # its ancestors are marked: no climb, and no call
            op._dirty |= CHANGED
        else:
            mark(op, CHANGED)

    def replace_all_uses_with(self, new_value: "SSAValue") -> None:
        """Rewrite every operand currently referencing ``self`` to ``new_value``."""
        if new_value is self:
            return
        for use in list(self.uses):
            use.operation.set_operand(use.index, new_value)

    @property
    def has_uses(self) -> bool:
        return bool(self.uses)

    # -- debugging -------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover
        hint = self.name_hint or "?"
        return f"<{type(self).__name__} %{hint} : {self.type.print()}>"


class OpResult(SSAValue):
    """An SSA value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(self, type: TypeAttribute, op: "Operation", index: int):
        super().__init__(type)
        self.op = op
        self.index = index

    def owner(self) -> "Operation":
        return self.op


class BlockArgument(SSAValue):
    """An SSA value introduced as a block argument (e.g. a loop induction var)."""

    __slots__ = ("block", "index")

    def __init__(self, type: TypeAttribute, block: "Block", index: int):
        super().__init__(type)
        self.block = block
        self.index = index


__all__ = ["Use", "SSAValue", "OpResult", "BlockArgument", "mark"]
