"""Pattern rewriting and dead-op erasure on one use-driven worklist.

Mirrors MLIR's greedy pattern rewriter at the granularity this project needs:
patterns match single operations and mutate the IR through a
:class:`PatternRewriter`, and :func:`apply_patterns` visits each seeded
operation once, erasing it if it :func:`~repro.ir.traits.is_trivially_dead`
and otherwise offering it to the patterns; an operation is visited again only
when a rewrite or an erasure touched something it uses or is used by.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .builder import Builder, InsertPoint
from .operation import IRError, Operation
from .ssa import OpResult, SSAValue
from .traits import is_trivially_dead


class RewritePattern:
    """Base class for rewrite patterns.

    Subclasses implement :meth:`match_and_rewrite`; they must call methods on
    the rewriter (rather than mutating the IR directly) so that the driver can
    detect progress and knows which operations to visit again.
    """

    #: Optional operation name filter; if set, the driver only calls the
    #: pattern on operations with this exact name.
    op_name: Optional[str] = None

    def match_and_rewrite(self, op: Operation, rewriter: "PatternRewriter") -> None:
        raise NotImplementedError


def _definers(op: Operation) -> List[Operation]:
    """The operations defining an operand of ``op`` or of anything nested in
    it — what may become dead once ``op`` is erased.  The body of a
    region-carrying op uses values defined outside it, so its own operands
    are not enough (and only such an op is worth a walk)."""
    return [operand.op
            for inner in (op.walk() if op.regions else (op,))
            for operand in inner._operands if isinstance(operand, OpResult)]


class PatternRewriter:
    """Mutation interface handed to patterns; records whether anything changed
    and which operations the driver has to visit again because of it."""

    def __init__(self, current_op: Operation):
        self.current_op = current_op
        self.has_done_action = False
        #: New ops, users of replaced values and definers of dropped operands.
        self.revisit: List[Operation] = []

    # -- insertion ---------------------------------------------------------

    def insert_op_before(self, new_op: Operation, anchor: Optional[Operation] = None) -> Operation:
        anchor = anchor or self.current_op
        block = anchor.parent_block()
        if block is None:
            raise IRError("anchor operation is not attached to a block")
        block.insert_op_before(new_op, anchor)
        self.revisit.append(new_op)
        self.has_done_action = True
        return new_op

    def insert_ops_before(
        self, new_ops: Sequence[Operation], anchor: Optional[Operation] = None
    ) -> List[Operation]:
        """Insert ``new_ops`` before ``anchor``, preserving their relative
        order: afterwards the block reads ``new_ops[0], ..., new_ops[-1],
        anchor``.  (Each op is inserted immediately before the anchor, so
        successive inserts land *after* the previously inserted ones — the
        sequence is not reversed; see test_insert_ops_before_preserves_order.)
        """
        return [self.insert_op_before(op, anchor) for op in new_ops]

    # -- replacement / erasure ------------------------------------------------

    def replace_op(
        self,
        op: Operation,
        new_ops: Sequence[Operation] = (),
        new_results: Optional[Sequence[Optional[SSAValue]]] = None,
    ) -> None:
        """Replace ``op`` with ``new_ops``.

        ``new_results`` gives, for each result of ``op``, the value that should
        replace it (``None`` keeps dangling and requires the result to be
        unused).  If omitted, the results of the last new operation are used.
        """
        block = op.parent_block()
        if block is None:
            raise IRError("cannot replace a detached operation")
        for new_op in new_ops:
            block.insert_op_before(new_op, op)
        if new_results is None:
            new_results = list(new_ops[-1].results) if new_ops else []
        if len(new_results) != len(op.results):
            raise IRError(
                f"replace_op: {op.name} has {len(op.results)} results but "
                f"{len(new_results)} replacements were given"
            )
        self.revisit.extend(new_ops)
        self.revisit.extend(use.operation for old in op.results for use in old.uses)
        self.revisit.extend(_definers(op))
        for old, new in zip(op.results, new_results):
            if new is None:
                if old.has_uses:
                    raise IRError(
                        f"replace_op: result of {op.name} still has uses but no "
                        "replacement value was provided"
                    )
            else:
                old.replace_all_uses_with(new)
        op.erase()
        self.has_done_action = True

    def erase_op(self, op: Optional[Operation] = None, *, safe: bool = True) -> None:
        op = op or self.current_op
        self.revisit.extend(_definers(op))
        op.erase(safe=safe)
        self.has_done_action = True


class GreedyRewriteResult:
    """Outcome of :func:`apply_patterns`: pattern applications, dead ops
    erased, and whether the worklist drained before the rewrite cap."""

    def __init__(self, converged: bool, rewrites: int, erased: int):
        self.converged = converged
        self.rewrites = rewrites
        self.erased = erased


def apply_patterns(
    root: Operation,
    patterns: Iterable[RewritePattern],
    *,
    seeds: Optional[Iterable[Operation]] = None,
    max_rewrites: int = 100_000,
) -> GreedyRewriteResult:
    """Erase trivially dead ops and greedily apply ``patterns`` until nothing
    is left to visit.

    The worklist starts with ``seeds`` (default: every op under ``root``) and
    is popped last-in first-out, so users are visited before the ops defining
    their operands and a chain of dead ops goes in one pass.  Erasing an op
    pushes the definers of its operands; a rewrite pushes what the
    :class:`PatternRewriter` recorded.  ``max_rewrites`` only guards against
    patterns that undo each other.
    """
    patterns = list(patterns)
    # A list plus id-keyed membership, never a set of ops: the visiting order
    # decides where rewrites insert, and the printed IR is content-hashed.
    worklist: List[Operation] = []
    queued = set()

    def push(ops: Iterable[Operation]) -> None:
        for op in ops:
            if id(op) not in queued:
                queued.add(id(op))
                worklist.append(op)

    push(root.walk(include_self=False) if seeds is None else seeds)
    rewrites = erased = 0
    while worklist:
        op = worklist.pop()
        queued.discard(id(op))
        if op.parent is None:
            continue  # erased since it was pushed
        if is_trivially_dead(op):
            definers = _definers(op)
            op.erase()
            erased += 1
            push(definers)
            continue
        for pattern in patterns:
            if pattern.op_name is not None and op.name != pattern.op_name:
                continue
            rewriter = PatternRewriter(op)
            pattern.match_and_rewrite(op, rewriter)
            if rewriter.has_done_action:
                rewrites += 1
                if rewrites >= max_rewrites:
                    return GreedyRewriteResult(False, rewrites, erased)
                push(rewriter.revisit)
                break  # the op may no longer exist
    return GreedyRewriteResult(True, rewrites, erased)


__all__ = [
    "RewritePattern",
    "PatternRewriter",
    "GreedyRewriteResult",
    "apply_patterns",
    "Builder",
    "InsertPoint",
]
