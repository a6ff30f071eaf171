"""Pattern rewriting infrastructure.

Mirrors MLIR's greedy pattern rewriter at the granularity this project needs:
patterns match single operations and mutate the IR through a
:class:`PatternRewriter`, and :func:`apply_patterns` walks the module applying
patterns until a fixed point (or an iteration cap) is reached.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .builder import Builder, InsertPoint
from .operation import Block, IRError, Operation, Region
from .ssa import SSAValue


class RewritePattern:
    """Base class for rewrite patterns.

    Subclasses implement :meth:`match_and_rewrite`; they must call methods on
    the rewriter (rather than mutating the IR directly) so that the driver can
    detect progress.
    """

    #: Optional operation name filter; if set, the driver only calls the
    #: pattern on operations with this exact name.
    op_name: Optional[str] = None

    def match_and_rewrite(self, op: Operation, rewriter: "PatternRewriter") -> None:
        raise NotImplementedError


class PatternRewriter:
    """Mutation interface handed to patterns; records whether anything changed."""

    def __init__(self, current_op: Operation):
        self.current_op = current_op
        self.has_done_action = False

    # -- insertion ---------------------------------------------------------

    def insert_op_before(self, new_op: Operation, anchor: Optional[Operation] = None) -> Operation:
        anchor = anchor or self.current_op
        block = anchor.parent_block()
        if block is None:
            raise IRError("anchor operation is not attached to a block")
        block.insert_op_before(new_op, anchor)
        self.has_done_action = True
        return new_op

    def insert_op_after(self, new_op: Operation, anchor: Optional[Operation] = None) -> Operation:
        anchor = anchor or self.current_op
        block = anchor.parent_block()
        if block is None:
            raise IRError("anchor operation is not attached to a block")
        block.insert_op_after(new_op, anchor)
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
        (op or self.current_op).erase(safe=safe)
        self.has_done_action = True

    def replace_all_uses_with(self, old: SSAValue, new: SSAValue) -> None:
        old.replace_all_uses_with(new)
        self.has_done_action = True

    # -- region surgery ----------------------------------------------------------

    def inline_block_before(self, block: Block, anchor: Operation,
                            arg_values: Sequence[SSAValue] = ()) -> None:
        """Move the operations of ``block`` before ``anchor``, substituting the
        block arguments with ``arg_values``."""
        if len(arg_values) != len(block.args):
            raise IRError("inline_block_before: argument count mismatch")
        for arg, value in zip(block.args, arg_values):
            arg.replace_all_uses_with(value)
        target = anchor.parent_block()
        if target is None:
            raise IRError("anchor operation is not attached to a block")
        for op in list(block.ops):
            op.detach()
            target.insert_op_before(op, anchor)
        self.has_done_action = True


class GreedyRewriteResult:
    """Outcome of :func:`apply_patterns`."""

    def __init__(self, converged: bool, iterations: int, rewrites: int):
        self.converged = converged
        self.iterations = iterations
        self.rewrites = rewrites


def apply_patterns(
    root: Operation,
    patterns: Iterable[RewritePattern],
    *,
    max_iterations: int = 32,
) -> GreedyRewriteResult:
    """Greedily apply ``patterns`` to every op under ``root`` until fixpoint."""
    patterns = list(patterns)
    total_rewrites = 0
    for iteration in range(1, max_iterations + 1):
        changed = False
        # Snapshot the op list: patterns may add/remove operations while we walk.
        for op in list(root.walk(include_self=False)):
            if op.parent is None:
                continue  # erased by an earlier rewrite in this sweep
            for pattern in patterns:
                if pattern.op_name is not None and op.name != pattern.op_name:
                    continue
                rewriter = PatternRewriter(op)
                pattern.match_and_rewrite(op, rewriter)
                if rewriter.has_done_action:
                    changed = True
                    total_rewrites += 1
                    break  # the op may no longer exist; move to the next op
        if not changed:
            return GreedyRewriteResult(True, iteration, total_rewrites)
    return GreedyRewriteResult(False, max_iterations, total_rewrites)


__all__ = [
    "RewritePattern",
    "PatternRewriter",
    "GreedyRewriteResult",
    "apply_patterns",
    "Builder",
    "InsertPoint",
]
