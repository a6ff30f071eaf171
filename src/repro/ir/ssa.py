"""SSA values and use-def chains.

Every value in the IR is either the result of an operation (:class:`OpResult`)
or a block argument (:class:`BlockArgument`).  Values track their uses so that
rewrites can replace values globally and the verifier can detect dangling uses.

Every mutation of the IR stores the next value of one process-wide counter as
the IR's *epoch*; ``verify()`` does not walk again a root it passed at it.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Dict, Optional

from .attributes import TypeAttribute

if TYPE_CHECKING:  # pragma: no cover
    from .operation import Block, Operation


#: A mutation (building a detached op is none) stores ``EPOCH[0] =
#: next(MUTATIONS)``: no Python call, and each value is stored once, so a
#: thread that stores late can only make a verified root look stale.
MUTATIONS, EPOCH = count(1), [0]


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
        EPOCH[0] = next(MUTATIONS)

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


__all__ = ["Use", "SSAValue", "OpResult", "BlockArgument"]
