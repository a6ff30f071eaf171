"""Generic cleanup passes: canonicalisation, CSE and cast reconciliation,
each ending in dead code elimination on :func:`~repro.ir.rewriting.erase_and_fold`.

These stand in for the standard MLIR passes the paper's pipelines invoke
between the structural lowerings (``canonicalize``, ``cse``,
``reconcile-unrealized-casts``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..dialects import arith
from ..dialects.builtin import UnrealizedConversionCastOp
from ..ir.context import Context
from ..ir.operation import Operation
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.rewriting import erase_and_fold
from ..ir.traits import Pure, has_trait


_FOLDERS = {
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b if b != 0 else None,
}


def _fold_constant(op: Operation) -> Optional[Operation]:
    """The constant an arith op whose operands are all constants folds to."""
    folder = _FOLDERS.get(op.name)
    if folder is None:
        return None
    definers = [getattr(operand, "op", None) for operand in op.operands]
    if not all(isinstance(d, arith.ConstantOp) for d in definers):
        return None
    folded = folder(*(d.literal for d in definers))
    return None if folded is None else arith.ConstantOp(folded, op.results[0].type)


@register_pass
class CanonicalizePass(ModulePass):
    """``canonicalize`` — constant folding of arith ops plus DCE."""

    name = "canonicalize"

    def apply(self, ctx: Context, module: Operation) -> None:
        erase_and_fold(module, fold=_fold_constant)


@register_pass
class CSEPass(ModulePass):
    """``cse`` — merge syntactically identical pure operations within a block."""

    name = "cse"

    def apply(self, ctx: Context, module: Operation) -> None:
        for op in list(module.walk()):
            for region in op.regions:
                for block in region.blocks:
                    self._run_on_block(block)
        erase_and_fold(module)

    def _run_on_block(self, block) -> None:
        seen: Dict[Tuple, Operation] = {}
        for op in list(block.ops):
            if not has_trait(op, Pure):  # loads are not mergeable across stores
                continue
            key = (
                op.name,
                tuple(id(o) for o in op.operands),
                tuple(sorted((k, v) for k, v in op.attributes.items())),
                tuple(r.type for r in op.results),
            )
            existing = seen.get(key)
            if existing is None:
                seen[key] = op
                continue
            for old, new in zip(op.results, existing.results):
                old.replace_all_uses_with(new)
            op.erase()


@register_pass
class ReconcileUnrealizedCastsPass(ModulePass):
    """``reconcile-unrealized-casts`` — erase cast pairs that cancel out."""

    name = "reconcile-unrealized-casts"

    def apply(self, ctx: Context, module: Operation) -> None:
        for op in list(module.walk()):
            if not isinstance(op, UnrealizedConversionCastOp) or op.parent is None:
                continue
            # A cast whose results all have the same types as its operands can
            # be folded away entirely.
            if len(op.results) == len(op.operands) and all(
                r.type == o.type for r, o in zip(op.results, op.operands)
            ):
                for result, operand in zip(op.results, op.operands):
                    result.replace_all_uses_with(operand)
                op.erase()
        erase_and_fold(module)


__all__ = [
    "CanonicalizePass",
    "CSEPass",
    "ReconcileUnrealizedCastsPass",
]
