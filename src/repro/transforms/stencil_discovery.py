"""Stencil discovery: find loop nests in FIR and rewrite them to the stencil dialect.

This is the paper's primary contribution (§3, Listing 3).  The pass:

1. gathers every ``fir.do_loop`` in a function and identifies the memory slot
   of its loop variable (Flang stores the converted induction value into the
   variable's alloca at the top of the body);
2. iterates over every array store (``fir.store`` through a
   ``fir.coordinate_of``), walking the index expressions backwards to decide
   whether the store is *indexed by loops* — i.e. each dimension's index is a
   loop variable plus a constant offset;
3. collects every array read on the right-hand side along with its per-
   dimension constant offsets relative to the store;
4. generates ``stencil.external_load`` / ``stencil.load`` operations for every
   array involved, a ``stencil.apply`` whose body re-expresses the arithmetic
   using ``stencil.access`` (and ``stencil.index`` for direct loop-variable
   uses), and a ``stencil.store`` for the output;
5. inserts the generated operations directly before the outermost driving
   loop, then erases the store with the arithmetic only it used, and the
   loops it leaves empty;
6. finally merges adjacent stencils with identical bounds when ``merge``
   is set (:func:`repro.transforms.stencil_fusion.merge_adjacent_applies`,
   the one way to fuse).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import arith, fir, stencil
from ..dialects.func import FuncOp
from ..ir.builder import Builder
from ..ir.operation import Block, Operation, Region
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.rewriting import definers, erase_and_fold
from ..ir.ssa import OpResult, SSAValue
from ..ir.types import FloatType, IndexType, IntegerType
from .stencil_fusion import merge_adjacent_applies


class DiscoveryError(Exception):
    """Internal: a candidate store turned out not to be a stencil."""


# ---------------------------------------------------------------------------
# Analysis data structures
# ---------------------------------------------------------------------------


@dataclass
class LoopInfo:
    """One ``fir.do_loop`` plus the facts discovery needs about it."""

    op: fir.DoLoopOp
    var_ref: Optional[SSAValue]  # the declare/alloca the induction value is stored to
    lower: Optional[int]
    upper: Optional[int]
    step: Optional[int]

    @property
    def has_constant_bounds(self) -> bool:
        return self.lower is not None and self.upper is not None and self.step == 1


@dataclass
class ArrayAccess:
    """One array read or write: the array plus per-dimension (loop, offset)."""

    root: SSAValue  # the array's storage reference (fir.declare result)
    name: str
    dims: List[Tuple[Optional[LoopInfo], int]] = field(default_factory=list)
    load_op: Optional[Operation] = None  # the fir.load for reads


@dataclass
class StencilCandidate:
    """A store that has been proven to be a stencil computation."""

    store_op: fir.StoreOp
    output: ArrayAccess
    reads: List[ArrayAccess]
    loops: List[LoopInfo]  # per output dimension, the driving loop
    nest: fir.DoLoopOp  # the outermost driving loop
    lb: Tuple[int, ...]
    ub: Tuple[int, ...]


# ---------------------------------------------------------------------------
# Loop gathering
# ---------------------------------------------------------------------------


def gather_program_loops(func_op: FuncOp) -> List[LoopInfo]:
    """Collect every ``fir.do_loop`` with its loop-variable slot and bounds."""
    return [LoopInfo(op=op, var_ref=_loop_variable_storage(op),
                     lower=_trace_constant(op.lower_bound),
                     upper=_trace_constant(op.upper_bound), step=_trace_constant(op.step))
            for op in func_op.walk() if isinstance(op, fir.DoLoopOp)]


def _loop_variable_storage(loop: fir.DoLoopOp) -> Optional[SSAValue]:
    """The storage the loop's induction variable is written to each iteration."""
    induction = loop.induction_variable
    for op in loop.body.block.ops:
        if isinstance(op, fir.StoreOp):
            value = op.value
            if isinstance(value, OpResult) and isinstance(value.op, fir.ConvertOp) \
                    and value.op.value is induction:
                return op.memref
    return None


_INTEGER_FOLDS = {"arith.addi": operator.add, "arith.subi": operator.sub,
                  "arith.muli": operator.mul}


def _trace_constant(value: SSAValue) -> Optional[int]:
    """Trace a bound value back to an integer constant if possible."""
    op = value.op if isinstance(value, OpResult) else None
    if isinstance(op, arith.ConstantOp):
        return int(op.literal) if float(op.literal).is_integer() else None
    if isinstance(op, fir.ConvertOp):
        return _trace_constant(op.operands[0])
    fold = _INTEGER_FOLDS.get(op.name) if op is not None else None
    if fold is None:
        return None
    lhs, rhs = _trace_constant(op.lhs), _trace_constant(op.rhs)
    return fold(lhs, rhs) if lhs is not None and rhs is not None else None


# ---------------------------------------------------------------------------
# Index expression analysis
# ---------------------------------------------------------------------------


def _trace_index_expression(value: SSAValue) -> Tuple[Optional[SSAValue], int]:
    """Decompose an index expression into (variable storage, constant offset).

    Returns ``(None, c)`` for pure constants and raises :class:`DiscoveryError`
    when the expression is not of the supported affine form var±const.
    """
    if not isinstance(value, OpResult):
        raise DiscoveryError("index expression has no defining operation")
    op = value.op
    if isinstance(op, arith.ConstantOp):
        return None, int(op.literal)
    if isinstance(op, fir.ConvertOp):
        return _trace_index_expression(op.operands[0])
    if isinstance(op, fir.LoadOp):
        ref = op.memref
        return ref, 0
    if isinstance(op, arith.AddiOp):
        lvar, loff = _trace_index_expression(op.lhs)
        rvar, roff = _trace_index_expression(op.rhs)
        if lvar is not None and rvar is not None:
            raise DiscoveryError("index expression adds two variables")
        return lvar or rvar, loff + roff
    if isinstance(op, arith.SubiOp):
        lvar, loff = _trace_index_expression(op.lhs)
        rvar, roff = _trace_index_expression(op.rhs)
        if rvar is not None:
            raise DiscoveryError("index expression subtracts a variable")
        return lvar, loff - roff
    raise DiscoveryError(f"unsupported operation '{op.name}' in index expression")


def _array_root_and_name(ref: SSAValue) -> Tuple[SSAValue, str]:
    """Resolve the storage root (declare result) and a printable name."""
    while isinstance(ref, OpResult) and isinstance(ref.op, fir.ConvertOp):
        ref = ref.op.operands[0]
    if isinstance(ref, OpResult) and isinstance(ref.op, fir.DeclareOp):
        return ref, ref.op.uniq_name.split("E")[-1]
    return ref, ref.name_hint or "array"


def _array_shape(root: SSAValue) -> Optional[Tuple[int, ...]]:
    shape = fir.array_shape_of(root.type)
    return None if shape is None or any(s < 0 for s in shape) else tuple(shape)


# ---------------------------------------------------------------------------
# Store classification (is_indexed_by_loops + RHS analysis)
# ---------------------------------------------------------------------------


def _enclosing_loops(op: Operation) -> List[fir.DoLoopOp]:
    loops: List[fir.DoLoopOp] = []
    parent = op.parent_op()
    while parent is not None:
        if isinstance(parent, fir.DoLoopOp):
            loops.append(parent)
        parent = parent.parent_op()
    return loops


#: index value -> its (variable storage, constant offset), for one function:
#: the frontend emits a subscript chain once per block and every access of
#: that block shares it, so most index values have been traced before.
IndexTraces = Dict[SSAValue, Tuple[Optional[SSAValue], int]]


def _classify_access(
    coord: fir.CoordinateOfOp, loops_by_storage: Dict[int, LoopInfo], traced: IndexTraces
) -> ArrayAccess:
    root, name = _array_root_and_name(coord.ref)
    access = ArrayAccess(root=root, name=name)
    for index_value in coord.indices:
        found = traced.get(index_value)
        if found is None:
            found = traced[index_value] = _trace_index_expression(index_value)
        storage, offset = found
        if storage is None:
            access.dims.append((None, offset))
            continue
        loop = loops_by_storage.get(id(storage))
        if loop is None:
            raise DiscoveryError("array index is not driven by a known loop variable")
        access.dims.append((loop, offset))
    return access


def enclosing_loop_map(store_op: fir.StoreOp, loops: Sequence[LoopInfo]) -> Dict[int, LoopInfo]:
    """Map loop-variable storage id -> the *enclosing* loop driving it.

    The same loop variable (e.g. ``i``) may drive several sibling loop nests;
    each store must be related to the loops that actually enclose it.
    """
    enclosing = {id(op) for op in _enclosing_loops(store_op)}
    mapping: Dict[int, LoopInfo] = {}
    for info in loops:
        if info.var_ref is not None and id(info.op) in enclosing:
            mapping[id(info.var_ref)] = info
    return mapping


def _indexed_by_loops(
    store_op: fir.StoreOp, loops: Sequence[LoopInfo], traced: IndexTraces
) -> Optional[Tuple[ArrayAccess, Dict[int, LoopInfo]]]:
    """The store's access and enclosing-loop map when every store index is
    loop-variable driven (paper Listing 3's predicate), else ``None``."""
    ref = store_op.memref
    if not (isinstance(ref, OpResult) and isinstance(ref.op, fir.CoordinateOfOp)):
        return None
    loops_by_storage = enclosing_loop_map(store_op, loops)
    try:
        access = _classify_access(ref.op, loops_by_storage, traced)
    except DiscoveryError:
        return None
    for loop, _offset in access.dims:
        if loop is None or not loop.has_constant_bounds:
            return None
    return access, loops_by_storage


def is_indexed_by_loops(store_op: fir.StoreOp, loops: Sequence[LoopInfo]) -> bool:
    """Paper Listing 3's predicate: every store index is loop-variable driven."""
    return _indexed_by_loops(store_op, loops, {}) is not None


def get_array_read_data_ops(store_op: fir.StoreOp) -> List[fir.LoadOp]:
    """All array ``fir.load`` operations feeding the stored value."""
    reads: List[fir.LoadOp] = []
    visited = set()

    def visit(value: SSAValue) -> None:
        if id(value) in visited or not isinstance(value, OpResult):
            return
        visited.add(id(value))
        op = value.op
        if isinstance(op, fir.LoadOp):
            ref = op.memref
            if isinstance(ref, OpResult) and isinstance(ref.op, fir.CoordinateOfOp):
                reads.append(op)
                return
            return  # scalar load: handled separately as an external value
        for operand in op.operands:
            visit(operand)

    visit(store_op.value)
    return reads


def _sweeps_keep_order(first: StencilCandidate, second: StencilCandidate) -> bool:
    """May ``first``, a statement before ``second`` in one loop nest, run as a
    whole sweep before ``second``'s?  Only if every element both touch, one
    of them writing it, was touched by ``first`` first in the nest too: the
    offset of ``second``'s access minus ``first``'s, over their shared loops
    outermost first, must be lexicographically <= 0.  ``b(i) = a(i);
    c(i) = b(i+1)`` (+1: the loop read the old ``b``) and ``c(i) = b(i-1);
    b(i) = a(i)`` (+1: the loop read the new one) are refused; a distance
    that is not a constant counts as refused.  A statement's reads of the
    array it writes follow the Jacobi policy instead (``apps/gauss_seidel``):
    they see the array as its sweep began."""
    def ordered(candidate: StencilCandidate) -> List[ArrayAccess]:
        return [candidate.output] + [read for read in candidate.reads
                                     if read.root is not candidate.output.root]

    shared = {id(loop.op) for loop in first.loops} & {id(loop.op) for loop in second.loops}
    for a in ordered(first):
        for b in ordered(second):
            if a.root is not b.root or (a is not first.output and b is not second.output):
                continue
            distance = []
            for (la, oa), (lb, ob) in zip(a.dims, b.dims):
                if la is lb and la is None and oa != ob:
                    break  # a constant subscript apart: never the same element
                if la is lb and la is not None:
                    distance.append((len(_enclosing_loops(la.op)), ob - oa))
                elif {id(l.op) for l in (la, lb) if l is not None} & shared:
                    return False
            else:
                if [d for _, d in sorted(distance)] > [0] * len(distance):
                    return False
    return True


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------


@register_pass
class StencilDiscoveryPass(ModulePass):
    """Rewrite loop-nest stencil computations in FIR into the stencil dialect."""

    name = "discover-stencils"

    def __init__(self, merge: bool = True):
        self.merge = merge
        #: Filled during apply(): number of stencils found per function.
        self.discovered: Dict[str, int] = {}

    def apply(self, module: Operation) -> None:
        for op in list(module.walk()):
            if isinstance(op, FuncOp) and not op.is_declaration:
                count = self._apply_to_function(op)
                if count:
                    self.discovered[op.sym_name] = count

    # ------------------------------------------------------------------

    def _apply_to_function(self, func_op: FuncOp) -> int:
        loops = gather_program_loops(func_op)
        if not loops:
            return 0

        candidates: List[StencilCandidate] = []
        traced: IndexTraces = {}
        for op in list(func_op.walk()):
            if not isinstance(op, fir.StoreOp):
                continue
            indexed = _indexed_by_loops(op, loops, traced)
            if indexed is None:
                continue
            candidate = self._analyse_store(op, *indexed, traced)
            if candidate is not None:
                candidates.append(candidate)

        pairs: List[Tuple[StencilCandidate, List[Operation]]] = []
        for candidate in candidates:
            generated = self._generate_stencil_ops(candidate)
            if generated is not None:
                pairs.append((candidate, generated))
        pairs = self._independent_of_remainder(pairs)

        # Insert the generated operations directly before the outermost loop
        # involved in each stencil, then erase the original store and what
        # it leaves dead.
        inserted = 0
        info_of = {id(loop.op): loop for loop in loops}
        for candidate, generated in pairs:
            block = candidate.nest.parent_block()
            if block is None:
                continue
            block.insert_ops_before(generated, candidate.nest)
            innermost = candidate.store_op.parent_op()
            _erase_and_sweep(candidate.store_op, func_op)
            _erase_emptied_nest(innermost, func_op, info_of)
            inserted += 1

        if inserted and self.merge:
            merge_adjacent_applies(func_op)
        return inserted

    def _independent_of_remainder(self, pairs):
        """The candidates that may run before their loop nest: no op left
        behind in it loads or stores the array they write, or stores an array
        they read (``a(idx(i)) = 1; idx(i) = idx(i) + 4; a(idx(i)) = 2``),
        and no other lifted candidate of the nest depends on them in a way
        separate sweeps reverse (:func:`_sweeps_keep_order`).  A refused
        candidate is itself left behind, so repeat until none is."""
        def conflicting(pairs) -> set:
            refused = set()
            for j, (first, _) in enumerate(pairs):
                nest = first.nest
                for second, _ in pairs[j + 1:]:
                    if second.nest is nest \
                            and not _sweeps_keep_order(first, second):
                        refused |= {id(first), id(second)}
            return refused

        def disturbed(candidate) -> bool:
            reads = {id(read.root) for read in candidate.reads}
            for op in candidate.nest.walk():
                ref = op.memref if isinstance(op, (fir.LoadOp, fir.StoreOp)) \
                    and id(op) not in lifted else None
                if isinstance(ref, OpResult) and isinstance(ref.op, fir.CoordinateOfOp):
                    root, _ = _array_root_and_name(ref.op.ref)
                    if root is candidate.output.root or (
                            isinstance(op, fir.StoreOp) and id(root) in reads):
                        return True
            return False

        while True:
            lifted = {id(op) for candidate, _ in pairs for op in
                      [candidate.store_op] + [r.load_op for r in candidate.reads]}
            refused = conflicting(pairs)
            kept = [pair for pair in pairs
                    if id(pair[0]) not in refused and not disturbed(pair[0])]
            if len(kept) == len(pairs):
                return kept
            pairs = kept

    # ------------------------------------------------------------------

    def _analyse_store(
        self, store_op: fir.StoreOp, output: ArrayAccess,
        loops_by_storage: Dict[int, LoopInfo], traced: IndexTraces,
    ) -> Optional[StencilCandidate]:
        try:
            reads = []
            for load in get_array_read_data_ops(store_op):
                access = _classify_access(load.memref.op, loops_by_storage, traced)  # type: ignore[union-attr]
                access.load_op = load
                reads.append(access)
        except DiscoveryError:
            return None

        if _array_shape(output.root) is None:
            return None
        for read in reads:
            if _array_shape(read.root) is None:
                return None
            if len(read.dims) != len(output.dims):
                return None
            for (read_loop, _), (out_loop, _) in zip(read.dims, output.dims):
                if read_loop is not None and out_loop is not None and read_loop is not out_loop:
                    return None  # transposed access patterns are not stencils here

        driving_loops: List[LoopInfo] = []
        lb: List[int] = []
        ub: List[int] = []
        for loop, offset in output.dims:  # each a constant-bound loop: _indexed_by_loops
            driving_loops.append(loop)
            # Stencil index space == zero-based array index space of the output:
            # Fortran loop bounds are inclusive, stencil bounds are half open.
            lb.append(loop.lower + offset)
            ub.append(loop.upper + offset + 1)
        if len(set(id(l.op) for l in driving_loops)) != len(driving_loops):
            return None  # one loop drives two dimensions: not a dense stencil
        nest = min(driving_loops, key=lambda loop: len(_enclosing_loops(loop.op))).op
        parent = store_op.parent_op()
        while parent is not nest:
            if not isinstance(parent, fir.DoLoopOp):
                return None  # a conditional store runs for some points only
            parent = parent.parent_op()

        return StencilCandidate(
            store_op=store_op,
            output=output,
            reads=reads,
            loops=driving_loops,
            nest=nest,
            lb=tuple(lb),
            ub=tuple(ub),
        )

    # ------------------------------------------------------------------
    # Stencil op generation
    # ------------------------------------------------------------------

    def _generate_stencil_ops(self, candidate: StencilCandidate) -> Optional[List[Operation]]:
        store_op = candidate.store_op
        elem_type = store_op.value.type
        generated: List[Operation] = []

        # generate_stencil_field_load for every unique array (reads first, then
        # the output, matching Listing 3's ordering).
        field_for_root: Dict[int, SSAValue] = {}
        temp_for_root: Dict[int, SSAValue] = {}
        temp_order: List[int] = []

        def ensure_field(root: SSAValue) -> SSAValue:
            if id(root) in field_for_root:
                return field_for_root[id(root)]
            shape = _array_shape(root)
            field_type = stencil.FieldType([[0, s] for s in shape],
                                           fir.element_type_of(root.type))
            load = stencil.ExternalLoadOp(root, field_type)
            generated.append(load)
            field_for_root[id(root)] = load.results[0]
            return load.results[0]

        for read in candidate.reads:
            if id(read.root) not in temp_for_root:
                field_value = ensure_field(read.root)
                temp_load = stencil.LoadOp(field_value)
                generated.append(temp_load)
                temp_for_root[id(read.root)] = temp_load.results[0]
                temp_order.append(id(read.root))
        output_field = ensure_field(candidate.output.root)

        # Scalar values read from memory outside the loops become extra apply
        # operands (loaded freshly just before the stencil ops).
        scalar_operands: Dict[int, SSAValue] = {}

        apply_inputs: List[SSAValue] = [temp_for_root[k] for k in temp_order]
        body_block = Block(arg_types=[v.type for v in apply_inputs])
        arg_for_root = {
            root_id: body_block.args[i] for i, root_id in enumerate(temp_order)
        }

        builder = Builder.at_end(body_block)
        value_map: Dict[int, SSAValue] = {}
        loop_dim = {id(loop.op): dim for dim, loop in enumerate(candidate.loops)}
        read_by_load = {id(r.load_op): r for r in candidate.reads if r.load_op is not None}

        def offsets_relative_to_store(read: ArrayAccess) -> List[int]:
            return [r_off - o_off for (_, r_off), (_, o_off)
                    in zip(read.dims, candidate.output.dims)]

        def rebuild(value: SSAValue) -> SSAValue:
            """Recreate the value's expression inside the apply body."""
            if id(value) in value_map:
                return value_map[id(value)]
            if not isinstance(value, OpResult):
                raise DiscoveryError("cannot rebuild a block-argument value")
            op = value.op
            result: SSAValue
            if isinstance(op, fir.LoadOp) and id(op) in read_by_load:
                read = read_by_load[id(op)]
                access = stencil.AccessOp(
                    arg_for_root[id(read.root)], offsets_relative_to_store(read)
                )
                builder.insert(access)
                result = access.results[0]
            elif isinstance(op, fir.LoadOp):
                ref = op.memref
                # Loop variable used directly in the computation -> stencil.index
                matching_loop = None
                for loop in candidate.loops:
                    if loop.var_ref is ref:
                        matching_loop = loop
                        break
                if matching_loop is not None:
                    dim = loop_dim[id(matching_loop.op)]
                    index_op = builder.insert(stencil.IndexOp(dim))
                    result = index_op.results[0]
                    if isinstance(value.type, (IntegerType,)):
                        cast = builder.insert(arith.IndexCastOp(result, value.type))
                        result = cast.results[0]
                else:
                    # A loop-invariant scalar: load it outside and pass it in,
                    # unless the nest stores it (an inner loop's variable).
                    if id(ref) not in scalar_operands:
                        if any(isinstance(use.operation, fir.StoreOp)
                               and candidate.nest.is_ancestor_of(use.operation)
                               for use in ref.uses):
                            raise DiscoveryError("scalar operand stored inside the nest")
                        outer_load = fir.LoadOp(ref)
                        generated.append(outer_load)
                        scalar_operands[id(ref)] = outer_load.results[0]
                        apply_inputs.append(outer_load.results[0])
                        new_arg = body_block.add_arg(outer_load.results[0].type)
                        value_map[id(outer_load.results[0])] = new_arg
                    outer_value = scalar_operands[id(ref)]
                    result = value_map[id(outer_value)]
            elif isinstance(op, arith.ConstantOp):
                clone = builder.insert(arith.ConstantOp(op.get_attr("value")))
                result = clone.results[0]
            elif isinstance(op, fir.ConvertOp):
                result = self._rebuild_convert(builder, rebuild(op.operands[0]), value.type)
            elif op.name.startswith("arith.") or op.name.startswith("math."):
                new_operands = [rebuild(o) for o in op.operands]
                clone = op.clone({o: n for o, n in zip(op.operands, new_operands)})
                builder.insert(clone)
                result = clone.results[value.index]
            else:
                raise DiscoveryError(
                    f"operation '{op.name}' is not supported inside a stencil body"
                )
            value_map[id(value)] = result
            return result

        try:
            returned = rebuild(store_op.value)
        except DiscoveryError:
            return None
        builder.insert(stencil.ReturnOp([returned]))

        result_temp_type = stencil.TempType(
            [[l, u] for l, u in zip(candidate.lb, candidate.ub)], elem_type
        )
        apply_op = stencil.ApplyOp(
            apply_inputs,
            candidate.lb,
            candidate.ub,
            [result_temp_type],
            Region([body_block]),
        )
        generated.append(apply_op)
        generated.append(
            stencil.StoreOp(apply_op.results[0], output_field, candidate.lb, candidate.ub)
        )
        return generated

    @staticmethod
    def _rebuild_convert(builder: Builder, value: SSAValue, target) -> SSAValue:
        """Convert FIR numeric conversions into standard arith casts."""
        if value.type == target:
            return value
        source = value.type
        if isinstance(source, (IntegerType, IndexType)) and isinstance(target, FloatType):
            if isinstance(source, IndexType):
                value = builder.insert(arith.IndexCastOp(value, IntegerType(64))).results[0]
            return builder.insert(arith.SIToFPOp(value, target)).results[0]
        if isinstance(source, FloatType) and isinstance(target, (IntegerType,)):
            return builder.insert(arith.FPToSIOp(value, target)).results[0]
        if isinstance(source, FloatType) and isinstance(target, FloatType):
            cls = arith.ExtFOp if target.width > source.width else arith.TruncFOp
            return builder.insert(cls(value, target)).results[0]
        if isinstance(source, (IntegerType, IndexType)) and isinstance(
            target, (IntegerType, IndexType)
        ):
            return builder.insert(arith.IndexCastOp(value, target)).results[0]
        raise DiscoveryError(
            f"unsupported conversion {source.print()} -> {target.print()}"
        )


# ---------------------------------------------------------------------------
# Erasing what a lift leaves behind
# ---------------------------------------------------------------------------


def _erase_and_sweep(op: Operation, func_op: FuncOp) -> None:
    """Erase ``op``, nested ops included, and every op only it kept alive."""
    revisit = definers(op)
    op.erase(safe=False)
    erase_and_fold(func_op, seeds=revisit)


def _erase_emptied_nest(loop: Optional[Operation], func_op: FuncOp,
                        info_of: Dict[int, LoopInfo]) -> None:
    """Erase ``loop`` and the loops around it, innermost first, while the
    body is left storing its loop variable only: what a lifted store leaves.

    A loop variable read where no loop storing it encloses the read (``x =
    i`` after the nest) is stored the value the erased loop left in it, its
    upper bound; a loop that would leave an unknown value stays."""
    anchor, finals = None, []
    while isinstance(loop, fir.DoLoopOp) and _only_counts(loop):
        read = [info_of[id(op)] for op in loop.walk_type(fir.DoLoopOp)]
        read = [info for info in read if _read_outside(info.var_ref, info_of)]
        if not all(info.has_constant_bounds and info.lower <= info.upper
                   for info in read):
            break
        for info in read:  # built before the loop goes: the slot stays used
            last = arith.ConstantOp.from_int(info.upper, fir.element_type_of(info.var_ref.type))
            finals += [last, fir.StoreOp(last.results[0], info.var_ref)]
        parent, anchor = loop.parent_op(), loop.next_op()
        _erase_and_sweep(loop, func_op)
        loop = parent
    if finals:
        anchor.parent_block().insert_ops_before(finals, anchor)


def _only_counts(loop: fir.DoLoopOp) -> bool:
    """Does the loop's body only store its converted induction value, around
    nested loops that do only that too?"""
    for op in loop.body.block.ops:
        if isinstance(op, fir.StoreOp) and isinstance(op.value, OpResult):
            op = op.value.op  # a store is judged by the value it stores
        if not (isinstance(op, fir.ResultOp)
                or isinstance(op, fir.ConvertOp) and op.value is loop.induction_variable
                or isinstance(op, fir.DoLoopOp) and _only_counts(op)):
            return False
    return True


def _read_outside(slot: Optional[SSAValue], info_of: Dict[int, LoopInfo]) -> bool:
    """Is the loop variable in ``slot`` a dummy argument (its caller reads
    it), or loaded where no loop storing it encloses the load?"""
    if slot is None:
        return False
    declared = slot.op.operands[0] if isinstance(slot, OpResult) \
        and isinstance(slot.op, fir.DeclareOp) else slot
    if not isinstance(declared, OpResult):
        return True
    for use in slot.uses:
        if isinstance(use.operation, fir.LoadOp):
            parent = use.operation.parent_op()
            while parent is not None and not (
                    id(parent) in info_of and info_of[id(parent)].var_ref is slot):
                parent = parent.parent_op()
            if parent is None:
                return True
    return False


__all__ = [
    "StencilDiscoveryPass",
    "LoopInfo",
    "ArrayAccess",
    "StencilCandidate",
    "gather_program_loops",
    "is_indexed_by_loops",
    "get_array_read_data_ops",
    "DiscoveryError",
]
