"""Schedule transforms: rewrite loop IR according to a schedule chain.

The fluent :class:`repro.schedule.Schedule` layer records directives on
``BackendOptions.schedule_chain`` (compile-time cache-key material); this
module is where those directives actually touch the IR, at the end of
``Backend.lower``, after the backend pipeline:

  - ``tile`` records a ``schedule.tile`` attribute on each loop-nest root
    (``scf.parallel`` / ``omp.wsloop``, or the ``stencil.apply`` itself when
    the module stays at the stencil level).  The attribute is execution
    placement, not semantics — the kernel compiler excludes it from the
    structural hash and the interpreter consumes it by running the compiled
    kernel over cache-sized sub-boxes of the domain.
  - ``reorder`` structurally permutes the innermost serial loops: the
    ``scf.for`` chain under a parallel nest root, or the perfectly nested
    ``fir.do_loop`` band of a ``flang-only`` artifact (where swapping the
    loops of an order-dependent sweep like in-place Gauss–Seidel genuinely
    changes results — which is precisely what ``Schedule.verify()`` exists
    to catch).
  - ``unroll`` widens a serial loop's step and replicates its body; the
    non-unit step sends the interpreter to the scalar path, so unrolling is
    bitwise-exact by construction.

Every structural impossibility — wrong tile rank, permutation deeper than
the serial nest, dynamic bounds, a backend with no loops to schedule —
raises :class:`repro.schedule.directives.ScheduleError` naming the kernel,
never a silent no-op.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..dialects import arith, fir, omp, scf, stencil
from ..dialects.func import FuncOp
from ..ir.attributes import DenseArrayAttr
from ..ir.operation import Block, Operation
from ..ir.ssa import BlockArgument, OpResult, SSAValue
from ..ir.types import index
from ..schedule.directives import ScheduleError, describe_chain

#: Attribute carrying tile sizes on a loop-nest root / stencil.apply.  It is
#: runtime placement policy: the kernel compiler's structural hash skips it
#: (see ``_METADATA_ATTRS``) so tiled and untiled sweeps share one kernel.
TILE_ATTR = "schedule.tile"

#: Operation names that may be cloned when hoisting a loop bound out of a
#: ``fir.do_loop`` band (pure value computations only — a bound that needs
#: memory or control flow is "dynamic" and cannot be reordered across).
_PURE_BOUND_OPS = ("fir.convert",)


def apply_schedule_chain(artifact) -> None:
    """Apply ``artifact.options.schedule_chain`` to the lowered artifact."""
    directives = getattr(artifact.options, "schedule_chain", ())
    if not directives:
        return
    backend = artifact.backend
    if backend in ("gpu", "dmp"):
        knob = "tile_sizes" if backend == "gpu" else "grid"
        raise ScheduleError(
            f"backend '{backend}' does not support loop schedule directives "
            f"({describe_chain(directives)}); use the '{knob}' option "
            f"(Schedule.{'blocks' if backend == 'gpu' else 'grid'}) instead"
        )
    if artifact.stencil_module is not None and artifact.extracted_functions:
        if getattr(artifact.options, "lower_to_scf", False):
            _apply_scf_directives(artifact, directives)
        else:
            _apply_stencil_directives(artifact, directives)
        artifact.stencil_module.verify()
    elif backend == "flang-only":
        _apply_fir_directives(artifact, directives)
        artifact.fir_module.verify()
    else:
        raise ScheduleError(
            f"backend '{backend}' discovered no stencil loops to schedule "
            f"(chain: {describe_chain(directives)})"
        )


# -- stencil level (lower_to_scf=False): tile only --------------------------


def _apply_stencil_directives(artifact, directives) -> None:
    for directive in directives:
        kind = directive[0]
        if kind != "tile":
            raise ScheduleError(
                f"{kind}: requires lower_to_scf=True on backend "
                f"'{artifact.backend}' — at the stencil level there are no "
                f"explicit loops to {kind}"
            )
        sizes = directive[1]
        for name in artifact.extracted_functions:
            func_op = artifact.stencil_module.get_symbol(name)
            applies = list(func_op.walk_type(stencil.ApplyOp))
            if not applies:
                raise ScheduleError(f"tile: kernel '{name}' has no stencil.apply")
            for apply_op in applies:
                rank = len(apply_op.lb)
                if len(sizes) != rank:
                    raise ScheduleError(
                        f"tile: kernel '{name}' has rank {rank} but got "
                        f"{len(sizes)} tile sizes {tuple(sizes)}"
                    )
                if apply_op.get_attr_or_none(TILE_ATTR) is not None:
                    raise ScheduleError(
                        f"tile: kernel '{name}' is already tiled "
                        f"(one tile directive per chain)"
                    )
                apply_op.attributes[TILE_ATTR] = DenseArrayAttr(sizes)


# -- scf/omp level (lower_to_scf=True) ---------------------------------------


class _ScfNest:
    """A lowered loop nest: its root (scf.parallel / omp.wsloop) plus the
    perfectly nested serial scf.for chain hanging under it."""

    def __init__(self, root: Operation):
        self.root = root
        self.parallel_rank = int(root.get_attr("rank").value)  # type: ignore[union-attr]
        self.serial_fors: List[scf.ForOp] = []
        block = root.regions[0].block
        while True:
            inner = [op for op in block.ops
                     if not isinstance(op, (scf.YieldOp, omp.YieldOp))]
            if len(inner) == 1 and isinstance(inner[0], scf.ForOp):
                self.serial_fors.append(inner[0])
                block = inner[0].body.block
            else:
                break

    @property
    def rank(self) -> int:
        return self.parallel_rank + len(self.serial_fors)


def _scf_nest_roots(func_op: FuncOp) -> List[Operation]:
    roots = []
    for op in func_op.walk():
        if isinstance(op, (scf.ParallelOp, omp.WsLoopOp)):
            parent = op.parent_op()
            enclosed = False
            while parent is not None:
                if isinstance(parent, (scf.ParallelOp, omp.WsLoopOp)):
                    enclosed = True
                    break
                parent = parent.parent_op()
            if not enclosed:
                roots.append(op)
    return roots


def _apply_scf_directives(artifact, directives) -> None:
    for name in artifact.extracted_functions:
        func_op = artifact.stencil_module.get_symbol(name)
        nests = [_ScfNest(root) for root in _scf_nest_roots(func_op)]
        if not nests:
            raise ScheduleError(
                f"kernel '{name}' contains no lowered loop nests to schedule"
            )
        for directive in directives:
            kind = directive[0]
            for nest in nests:
                if kind == "tile":
                    _tile_scf(nest, directive[1], name)
                elif kind == "reorder":
                    _reorder_scf(nest, directive[1], name)
                elif kind == "unroll":
                    _unroll_scf(nest, directive[1], name)


def _tile_scf(nest: _ScfNest, sizes: Tuple[int, ...], name: str) -> None:
    if len(sizes) != nest.rank:
        raise ScheduleError(
            f"tile: kernel '{name}' lowers to a rank-{nest.rank} loop nest "
            f"but got {len(sizes)} tile sizes {tuple(sizes)}"
        )
    if nest.root.get_attr_or_none(TILE_ATTR) is not None:
        raise ScheduleError(
            f"tile: kernel '{name}' is already tiled (one tile directive "
            f"per chain)"
        )
    nest.root.attributes[TILE_ATTR] = DenseArrayAttr(sizes)


def _defined_inside(value: SSAValue, root: Operation) -> bool:
    if isinstance(value, BlockArgument):
        owner = value.block.parent_op()
    elif isinstance(value, OpResult):
        owner = value.op
    else:  # pragma: no cover - SSAValue is one of the two
        return False
    return owner is not None and root.is_ancestor_of(owner)


def _reorder_scf(nest: _ScfNest, perm: Tuple[int, ...], name: str) -> None:
    m = len(perm)
    depth = len(nest.serial_fors)
    if m > depth:
        raise ScheduleError(
            f"reorder: kernel '{name}' has only {depth} serial loop(s) under "
            f"its parallel nest, cannot apply a length-{m} permutation "
            f"{tuple(perm)} (parallel dimensions cannot be reordered)"
        )
    affected = nest.serial_fors[-m:]
    for for_op in affected:
        for bound in for_op.operands[:3]:
            if _defined_inside(bound, nest.root):
                raise ScheduleError(
                    f"reorder: kernel '{name}' has loop bounds defined inside "
                    f"the nest (triangular loops cannot be reordered)"
                )
    triples = [tuple(f.operands[:3]) for f in affected]
    for i, for_op in enumerate(affected):
        for_op.set_operands(list(triples[perm[i]]) + list(for_op.operands[3:]))
    # Position i now walks the iteration space formerly at position perm[i];
    # body uses of dimension j's induction variable must move to the loop now
    # carrying it, i.e. position inverse-perm[j].
    ivs = [f.induction_variable for f in affected]
    inverse = [0] * m
    for q, j in enumerate(perm):
        inverse[j] = q
    replacement: Dict[int, SSAValue] = {
        id(ivs[j]): ivs[inverse[j]] for j in range(m) if inverse[j] != j
    }
    if replacement:
        for op in list(nest.root.walk(include_self=False)):
            for idx, operand in enumerate(op.operands):
                new = replacement.get(id(operand))
                if new is not None:
                    op.set_operand(idx, new)
    # Tile sizes attach to iteration-space dimensions, so they travel with
    # the loops: permute the serial tail of an existing tile attribute.
    tile_attr = nest.root.get_attr_or_none(TILE_ATTR)
    if tile_attr is not None:
        sizes = list(tile_attr.as_tuple())
        tail = sizes[-m:]
        sizes[-m:] = [tail[perm[i]] for i in range(m)]
        nest.root.attributes[TILE_ATTR] = DenseArrayAttr(sizes)


def _constant_value(value: SSAValue) -> Optional[int]:
    if isinstance(value, OpResult) and isinstance(value.op, arith.ConstantOp):
        return int(value.op.literal)
    return None


def _unroll_scf(nest: _ScfNest, spec: Tuple[int, int], name: str) -> None:
    loop_index, factor = spec
    if loop_index >= len(nest.serial_fors):
        raise ScheduleError(
            f"unroll: kernel '{name}' has {len(nest.serial_fors)} serial "
            f"loop(s); loop index {loop_index} is out of range"
        )
    for_op = nest.serial_fors[loop_index]
    lower = _constant_value(for_op.lower_bound)
    upper = _constant_value(for_op.upper_bound)
    step = _constant_value(for_op.step)
    if lower is None or upper is None or step is None:
        raise ScheduleError(
            f"unroll: kernel '{name}' loop {loop_index} has non-constant "
            f"bounds; only statically counted loops can be unrolled"
        )
    trip = len(range(lower, upper, step))
    if trip % factor != 0:
        raise ScheduleError(
            f"unroll: factor {factor} does not divide the trip count {trip} "
            f"of loop {loop_index} in kernel '{name}'"
        )
    block = for_op.body.block
    original_ops = [op for op in block.ops if not isinstance(op, scf.YieldOp)]
    terminator = block.last_op
    iv = for_op.induction_variable
    for r in range(1, factor):
        offset = arith.ConstantOp.from_int(r * step, index)
        shifted = arith.AddiOp(iv, offset.results[0])
        block.insert_op_before(offset, terminator)
        block.insert_op_before(shifted, terminator)
        value_map: Dict[SSAValue, SSAValue] = {iv: shifted.results[0]}
        for op in original_ops:
            block.insert_op_before(op.clone(value_map), terminator)
    new_step = arith.ConstantOp.from_int(step * factor, index)
    for_op.parent_block().insert_op_before(new_step, for_op)
    for_op.set_operand(2, new_step.results[0])


# -- flang-only: fir.do_loop bands -------------------------------------------


class _FirBand:
    """A perfectly nested ``fir.do_loop`` chain in plain FIR.

    Each level's body starts with the Flang induction-variable prologue
    (``fir.convert`` of the block argument + ``fir.store`` into the loop
    variable's storage slot); the body indexes arrays by *loading the loop
    variable back from storage*, so reordering levels only needs the bounds
    and the storage targets permuted — never the loads in the body.
    """

    def __init__(self, loops: List[fir.DoLoopOp],
                 prologues: List[Tuple[fir.ConvertOp, fir.StoreOp]]):
        self.loops = loops
        self.prologues = prologues


def _iv_prologue(loop: fir.DoLoopOp) -> Optional[Tuple[fir.ConvertOp, fir.StoreOp]]:
    iv = loop.induction_variable
    convert = None
    for use in iv.uses:
        if isinstance(use.operation, fir.ConvertOp):
            if convert is not None:
                return None
            convert = use.operation
        else:
            return None  # iv escapes beyond the prologue: not a Flang band
    if convert is None or len(convert.results[0].uses) != 1:
        return None
    store = next(iter(convert.results[0].uses)).operation
    if not isinstance(store, fir.StoreOp):
        return None
    return convert, store


def _fir_bands(func_op: FuncOp) -> List[_FirBand]:
    bands: List[_FirBand] = []
    top_loops = []
    for op in func_op.walk():
        if isinstance(op, fir.DoLoopOp):
            parent = op.parent_op()
            enclosed = False
            while parent is not None:
                if isinstance(parent, fir.DoLoopOp):
                    enclosed = True
                    break
                parent = parent.parent_op()
            if not enclosed:
                top_loops.append(op)

    def collect(start: fir.DoLoopOp) -> None:
        loops: List[fir.DoLoopOp] = []
        prologues: List[Tuple[fir.ConvertOp, fir.StoreOp]] = []
        current: Optional[fir.DoLoopOp] = start
        while current is not None:
            prologue = _iv_prologue(current)
            body_ops = current.body.block.ops
            children = [op for op in body_ops if isinstance(op, fir.DoLoopOp)]
            if prologue is None:
                # This loop is no Flang band level; its children may still
                # head bands of their own.
                for child in children:
                    collect(child)
                break
            loops.append(current)
            prologues.append(prologue)
            # Only descend through *perfect* levels: anything side-effectful
            # between two loops (another store, a call, control flow) would
            # run a different number of times after a permutation, so such a
            # level ends the reorderable band — and each child loop (e.g. the
            # sibling sweeps under an outer time loop) heads a fresh band.
            perfect = len(children) == 1 and all(
                op is children[0] or op is prologue[0] or op is prologue[1]
                or isinstance(op, fir.ResultOp)
                or op.name.startswith("arith.") or op.name in _PURE_BOUND_OPS
                for op in body_ops
            )
            if perfect:
                current = children[0]
            else:
                for child in children:
                    collect(child)
                current = None
        if loops:
            bands.append(_FirBand(loops, prologues))

    for top in top_loops:
        collect(top)
    return bands


def _hoist_bound(value: SSAValue, band_root: fir.DoLoopOp,
                 insert_block: Block, insert_before: Operation,
                 memo: Dict[int, SSAValue], name: str) -> SSAValue:
    """Clone ``value``'s pure defining chain to before the outermost affected
    loop so permuted bounds still dominate their loops."""
    if not _defined_inside(value, band_root):
        return value
    cached = memo.get(id(value))
    if cached is not None:
        return cached
    if isinstance(value, BlockArgument) or not isinstance(value, OpResult):
        raise ScheduleError(
            f"reorder: kernel '{name}' has loop bounds depending on an "
            f"enclosing induction variable (triangular loops cannot be "
            f"reordered)"
        )
    op = value.op
    if not (op.name.startswith("arith.") or op.name in _PURE_BOUND_OPS):
        raise ScheduleError(
            f"reorder: kernel '{name}' has a dynamic loop bound "
            f"(defined by '{op.name}') that cannot be hoisted out of the nest"
        )
    clone = op.clone({
        operand: _hoist_bound(operand, band_root, insert_block,
                              insert_before, memo, name)
        for operand in op.operands
    })
    insert_block.insert_op_before(clone, insert_before)
    for old_res, new_res in zip(op.results, clone.results):
        memo[id(old_res)] = new_res
    return memo[id(value)]


def _apply_fir_directives(artifact, directives) -> None:
    for directive in directives:
        kind = directive[0]
        if kind != "reorder":
            raise ScheduleError(
                f"{kind}: backend 'flang-only' executes plain FIR loops "
                f"point-by-point; only 'reorder' applies (tile/unroll need "
                f"the stencil flow)"
            )
        perm = directive[1]
        m = len(perm)
        applied = 0
        for func_op in list(artifact.fir_module.walk()):
            if not isinstance(func_op, FuncOp) or func_op.is_declaration:
                continue
            for band in _fir_bands(func_op):
                if len(band.loops) < m:
                    continue
                _reorder_fir_band(band, perm, func_op.sym_name)
                applied += 1
        if not applied:
            raise ScheduleError(
                f"reorder: no fir.do_loop band of depth >= {m} found to "
                f"apply permutation {tuple(perm)} to"
            )


def _reorder_fir_band(band: _FirBand, perm: Tuple[int, ...], name: str) -> None:
    m = len(perm)
    loops = band.loops[-m:]
    prologues = band.prologues[-m:]
    outer = loops[0]
    insert_block = outer.parent_block()
    memo: Dict[int, SSAValue] = {}
    hoisted: List[Tuple[SSAValue, SSAValue, SSAValue]] = []
    for loop in loops:
        hoisted.append(tuple(
            _hoist_bound(bound, outer, insert_block, outer, memo, name)
            for bound in loop.operands[:3]
        ))
    conv_types = [prologue[0].results[0].type for prologue in prologues]
    if any(t != conv_types[0] for t in conv_types):
        raise ScheduleError(
            f"reorder: kernel '{name}' mixes loop-variable types across the "
            f"band; cannot permute"
        )
    storages = [prologue[1].memref for prologue in prologues]
    for storage in storages:
        if _defined_inside(storage, outer):
            raise ScheduleError(
                f"reorder: kernel '{name}' allocates loop-variable storage "
                f"inside the nest; cannot permute"
            )
    hints = [prologue[0].results[0].name_hint for prologue in prologues]
    for i, loop in enumerate(loops):
        loop.set_operands(list(hoisted[perm[i]]))
        # Retarget level i's prologue store at the permuted loop variable's
        # storage slot; body loads of that variable then see level i's index.
        prologues[i][1].set_operand(1, storages[perm[i]])
        prologues[i][0].results[0].name_hint = hints[perm[i]]


__all__ = ["TILE_ATTR", "apply_schedule_chain"]
