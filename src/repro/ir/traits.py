"""Operation traits.

Traits declare structural invariants shared by many operations and are checked
during verification.  They are deliberately lightweight: a trait is a class
with an optional ``verify_trait(op)`` static method.
"""

from __future__ import annotations

from .operation import Operation, VerifyException


class IsTerminator:
    """The operation must be the last operation of its block."""

    @staticmethod
    def verify_trait(op: Operation) -> None:
        block = op.parent_block()
        if block is not None and block.last_op is not op:
            raise VerifyException(
                f"terminator {op.name} must be the last operation in its block"
            )


class NoTerminator:
    """Regions of this operation do not require a terminator (e.g. builtin.module)."""


class Pure:
    """The operation has no side effects: it may be erased when unused and
    merged with an identical operation (CSE)."""


class ReadOnly:
    """The operation only reads memory: it may be erased when unused, but is
    never merged — a store between two identical loads changes the second."""


class HasMemoryEffect:
    """The operation writes or allocates memory and is never erased as dead."""


class SingleBlockRegion:
    """Every region of the operation must contain exactly one block."""

    @staticmethod
    def verify_trait(op: Operation) -> None:
        for i, region in enumerate(op.regions):
            if len(region.blocks) != 1:
                raise VerifyException(
                    f"{op.name}: region {i} must contain exactly one block, "
                    f"found {len(region.blocks)}"
                )


class IsolatedFromAbove:
    """Operations inside regions may not reference values defined outside.

    A marker: :meth:`Operation.verify` enforces it for every isolated ancestor
    at once, in the same pass that records where values are defined."""


class SymbolOpInterface:
    """The operation defines a symbol via a ``sym_name`` attribute."""

    @staticmethod
    def verify_trait(op: Operation) -> None:
        if "sym_name" not in op.attributes:
            raise VerifyException(f"{op.name}: symbol operation requires 'sym_name'")


def has_trait(op: Operation, trait: type) -> bool:
    """Return True if ``op`` (or its class) declares ``trait``."""
    return trait in type(op).traits


def is_trivially_dead(op: Operation) -> bool:
    """The compile path's one notion of dead code: an attached, region-free
    operation that declares :class:`Pure` or :class:`ReadOnly` and whose
    results (it has some) are all unused."""
    return (
        op.parent is not None
        and bool(op.results)
        and not op.regions
        and (has_trait(op, Pure) or has_trait(op, ReadOnly))
        and not any(result.uses for result in op.results)
    )


__all__ = [
    "IsTerminator",
    "NoTerminator",
    "Pure",
    "ReadOnly",
    "HasMemoryEffect",
    "SingleBlockRegion",
    "IsolatedFromAbove",
    "SymbolOpInterface",
    "has_trait",
    "is_trivially_dead",
]
