"""Dead-op erasure and constant folding on one use-driven worklist.

:func:`erase_and_fold` visits each seeded operation once, erasing it if it
:func:`~repro.ir.traits.is_trivially_dead` and otherwise offering it to a
``fold``; an operation is visited again only when an erasure or a fold
touched something it uses or is used by.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from .operation import Operation
from .ssa import OpResult
from .traits import is_trivially_dead


def definers(op: Operation) -> List[Operation]:
    """The operations defining an operand of ``op`` or of anything nested in
    it — what may become dead once ``op`` is erased.  The body of a
    region-carrying op uses values defined outside it, so its own operands
    are not enough (and only such an op is worth a walk)."""
    return [operand.op
            for inner in (op.walk() if op.regions else (op,))
            for operand in inner._operands if isinstance(operand, OpResult)]


def erase_and_fold(
    root: Operation,
    *,
    seeds: Optional[Iterable[Operation]] = None,
    fold: Optional[Callable[[Operation], Optional[Operation]]] = None,
) -> int:
    """Erase trivially dead ops, and replace each op ``fold`` maps to a new
    constant op by that constant, until nothing is left to visit; returns
    the number of dead ops erased.

    The worklist starts with ``seeds`` (default: every op under ``root``) and
    is popped last-in first-out, so users are visited before the ops defining
    their operands and a chain of dead ops goes in one pass.  Erasing an op
    pushes its :func:`definers`; a fold pushes the constant, then the users
    of the folded op, then its definers.
    """
    # A list plus id-keyed membership, never a set of ops: the visiting order
    # decides where folds insert, and the printed IR is content-hashed.
    worklist: List[Operation] = []
    queued = set()

    def push(ops: Iterable[Operation]) -> None:
        for op in ops:
            if id(op) not in queued:
                queued.add(id(op))
                worklist.append(op)

    push(root.walk(include_self=False) if seeds is None else seeds)
    erased = 0
    while worklist:
        op = worklist.pop()
        queued.discard(id(op))
        if op.parent is None:
            continue  # erased since it was pushed
        if is_trivially_dead(op):
            revisit = definers(op)
            op.erase()
            erased += 1
            push(revisit)
            continue
        constant = fold(op) if fold is not None else None
        if constant is None:
            continue
        op.parent_block().insert_op_before(constant, op)
        revisit = [constant, *(use.operation for old in op.results for use in old.uses),
                   *definers(op)]
        for old, new in zip(op.results, constant.results):
            old.replace_all_uses_with(new)
        op.erase()
        push(revisit)
    return erased


__all__ = ["definers", "erase_and_fold"]
