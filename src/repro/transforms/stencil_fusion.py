"""Stencil fusion: merge adjacent ``stencil.apply`` operations.

The final step of the paper's discovery algorithm (Listing 3 line 29) merges
stencils that sit next to each other in the IR and share the same bounds; the
PW advection benchmark relies on this to fuse its three component stencils
into a single stencil region (§4.1).  Discovery is the one caller: the
``fuse_stencils`` compile option turns the merge off (ablation E9).

The merge is safe when the later apply does not read any field written by the
earlier one (stencil semantics take a snapshot of their inputs, so a
read-after-write through memory would change meaning).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..dialects import stencil
from ..dialects.func import FuncOp
from ..ir.operation import Block, Region
from ..ir.ssa import OpResult, SSAValue
from .cleanup import eliminate_dead_code


def _source_root(value: SSAValue) -> Optional[SSAValue]:
    """For a temp produced by load(external_load(x)) return x, else None."""
    if isinstance(value, OpResult) and isinstance(value.op, stencil.LoadOp):
        field = value.op.field
        if isinstance(field, OpResult) and isinstance(field.op, stencil.ExternalLoadOp):
            return field.op.source
    return None


def _written_roots(apply_op: stencil.ApplyOp) -> List[SSAValue]:
    """External sources written by the stores consuming this apply's results."""
    roots: List[SSAValue] = []
    for result in apply_op.results:
        for use in result.uses:
            user = use.operation
            if isinstance(user, stencil.StoreOp):
                field = user.field
                if isinstance(field, OpResult) and isinstance(
                    field.op, stencil.ExternalLoadOp
                ):
                    roots.append(field.op.source)
    return roots


def _can_fuse(first: stencil.ApplyOp, second: stencil.ApplyOp) -> bool:
    if first.parent_block() is not second.parent_block():
        return False
    if first.lb != second.lb or first.ub != second.ub:
        return False
    written = {id(r) for r in _written_roots(first)}
    for operand in second.operands:
        root = _source_root(operand)
        if root is not None and id(root) in written:
            return False
    # Everything between the two applies must be free of unknown side effects.
    block = first.parent_block()
    ops = block.ops
    start = block.index_of(first)
    end = block.index_of(second)
    allowed = (stencil.ExternalLoadOp, stencil.LoadOp, stencil.StoreOp)
    for op in ops[start + 1 : end]:
        if not isinstance(op, allowed) and not op.name.startswith(("arith.", "fir.load")):
            return False
    return True


def _fuse_pair(first: stencil.ApplyOp, second: stencil.ApplyOp) -> stencil.ApplyOp:
    """Create one apply combining ``first`` and ``second`` (same bounds)."""
    block = first.parent_block()
    assert block is not None

    # Deduplicate operands that snapshot the same external array.
    new_operands: List[SSAValue] = []
    operand_keys: Dict[int, int] = {}  # id(root or operand) -> index in new_operands

    def operand_index(value: SSAValue) -> int:
        root = _source_root(value)
        key = id(root) if root is not None else id(value)
        if key in operand_keys:
            return operand_keys[key]
        operand_keys[key] = len(new_operands)
        new_operands.append(value)
        return operand_keys[key]

    mapping: Dict[SSAValue, int] = {}
    for apply_op in (first, second):
        for operand, arg in zip(apply_op.operands, apply_op.body.block.args):
            mapping[arg] = operand_index(operand)

    fused_block = Block(arg_types=[v.type for v in new_operands])
    value_map: Dict[SSAValue, SSAValue] = {}
    for arg, idx in mapping.items():
        value_map[arg] = fused_block.args[idx]

    # Each body moves over whole: its terminator's operands become the
    # fused terminator's.
    returns: List[SSAValue] = []
    for apply_op in (first, second):
        terminator = apply_op.body.block.last_op
        returns.extend(value_map.get(o, o) for o in terminator.operands)
        terminator.erase()
        fused_block.take_ops(apply_op.body, value_map)
    fused_block.add_op(stencil.ReturnOp(returns))

    fused = stencil.ApplyOp(
        new_operands,
        first.lb,
        first.ub,
        [r.type for r in first.results] + [r.type for r in second.results],
        Region([fused_block]),
    )
    # Insert at the position of the *second* apply: every operand of both
    # applies is defined by then.
    block.insert_op_before(fused, second)

    # Stores consuming the first apply may sit before the fused op; move them after it.
    n_first = len(first.results)
    for i, old_result in enumerate(list(first.results) + list(second.results)):
        old_result.replace_all_uses_with(fused.results[i])
    for use_op in [u.operation for r in fused.results for u in r.uses]:
        if use_op.parent_block() is block and block.index_of(use_op) < block.index_of(fused):
            use_op.detach()
            block.insert_op_after(use_op, fused)

    first.erase()
    second.erase()
    return fused


def merge_adjacent_applies(func_op: FuncOp) -> int:
    """Fuse eligible applies within every block of ``func_op``; returns count."""
    fused = 0
    changed = True
    while changed:
        changed = False
        for block in _blocks_of(func_op):
            applies = [op for op in block.ops if isinstance(op, stencil.ApplyOp)]
            for first, second in zip(applies, applies[1:]):
                if _can_fuse(first, second):
                    _fuse_pair(first, second)
                    fused += 1
                    changed = True
                    break
            if changed:
                break
    # Operand deduplication strands duplicate stencil.load ops, each of which
    # would still execute as a whole-field snapshot copy; erase them and the
    # external_load ops only they kept alive.
    chain = (stencil.LoadOp, stencil.ExternalLoadOp)
    eliminate_dead_code(
        func_op, seeds=[op for op in func_op.walk() if isinstance(op, chain)]
    )
    return fused


def _blocks_of(func_op: FuncOp):
    blocks = []
    for op in func_op.walk():
        for region in op.regions:
            blocks.extend(region.blocks)
    return blocks


__all__ = ["merge_adjacent_applies"]
