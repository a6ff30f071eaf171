"""The one cleanup engine: ``is_trivially_dead`` + the worklist of
``erase_and_fold``, called directly and behind ``canonicalize``."""

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, fir, func
from repro.dialects.builtin import ModuleOp
from repro.frontend import compile_to_fir
from repro.fuzz import DEFAULT_CONFIG, generate_spec
from repro.ir import (
    Builder,
    IRError,
    default_context,
    erase_and_fold,
    i32,
    index,
    print_module,
)
from repro.ir.traits import Pure, ReadOnly, is_trivially_dead
from repro.transforms import StencilDiscoveryPass, stencil_discovery
from repro.transforms.cleanup import _fold_constant
from repro.transforms.stencil_discovery import (
    _erase_and_sweep,
    _erase_emptied_nest,
    gather_program_loops,
)


def naive_dce(root):
    """Reference: re-walk the whole root until a walk erases nothing."""
    removed, changed = 0, True
    while changed:
        changed = False
        for op in list(root.walk(include_self=False)):
            if is_trivially_dead(op):
                op.erase()
                removed, changed = removed + 1, True
    return removed


def _fir_modules(source):
    """The post-discovery FIR, and the frontend's FIR with every store erased
    (whole right-hand-side expression trees become dead at once)."""
    discovered = compile_to_fir(source)
    StencilDiscoveryPass().apply(default_context(), discovered)
    storeless = compile_to_fir(source)
    for op in list(storeless.walk()):
        if isinstance(op, fir.StoreOp):
            op.erase()
    return discovered, storeless


def _sources(fuzz_seeds):
    yield pw_advection.generate_source(8)
    yield gauss_seidel.generate_source(8, niters=2)
    for seed in range(fuzz_seeds):
        yield generate_spec(seed, DEFAULT_CONFIG).render()


def test_worklist_dce_matches_the_naive_fixpoint(fuzz_seeds):
    erased_anything = False
    for source in _sources(fuzz_seeds):
        for module in _fir_modules(source):
            reference = module.clone()
            expected = naive_dce(reference)
            assert erase_and_fold(module) == expected
            assert print_module(module) == print_module(reference)
            assert erase_and_fold(module) == 0
            module.verify()
            erased_anything |= expected > 0
    assert erased_anything


# -- loops left empty by discovery ---------------------------------------------

def _loop(builder, lb, ub, step, storage):
    """An "empty" fir.do_loop: its body only stores the induction value."""
    loop = builder.insert(fir.DoLoopOp(lb, ub, step))
    body = Builder.at_end(loop.body.block)
    converted = body.insert(fir.ConvertOp(loop.induction_variable, i32))
    body.insert(fir.StoreOp(converted.results[0], storage))
    return loop, body


def _function():
    f = func.FuncOp.build("f", [], [])
    return f, Builder.at_end(f.entry_block)


def _erase_emptied(innermost, f):
    """What discovery does once the last lifted store of a nest is erased."""
    _erase_emptied_nest(innermost, f, {id(l.op): l for l in gather_program_loops(f)})


def _names(f):
    return [op.name for op in f.walk(include_self=False)]


def test_values_used_only_inside_an_erased_loop_go_with_it(monkeypatch):
    """Trap (a): the declare below is no operand of the loop — only the store
    in its body uses it."""

    def build():
        f, b = _function()
        slot = b.insert(fir.AllocaOp(i32, "i"))
        declared = b.insert(fir.DeclareOp(slot.results[0], "_QFfEi"))
        one = b.insert(arith.ConstantOp.from_int(1, index)).result
        eight = b.insert(arith.ConstantOp.from_int(8, index)).result
        _, body = _loop(b, one, eight, one, declared.results[0])
        body.insert(fir.ResultOp([]))
        b.insert(func.ReturnOp([]))
        return f

    # Erasing the loop has to hand over the definers of everything its body
    # used ...
    def erase_the_loop():
        f = build()
        _erase_emptied(next(f.walk_type(fir.DoLoopOp)), f)
        ModuleOp([f]).verify()
        return _names(f)

    assert erase_the_loop() == ["fir.alloca", "func.return"]
    # ... because handing over the loop's own operands leaves the declare.
    monkeypatch.setattr(stencil_discovery, "definers",
                        lambda op: [v.op for v in op.operands if hasattr(v, "op")])
    assert erase_the_loop() == ["fir.alloca", "fir.declare", "func.return"]


def test_bounds_computed_in_the_outer_body_empty_the_outer_loop_too():
    f, b = _function()
    slot_i = b.insert(fir.AllocaOp(i32, "i")).results[0]
    slot_j = b.insert(fir.AllocaOp(i32, "j")).results[0]
    one = b.insert(arith.ConstantOp.from_int(1, index)).result
    eight = b.insert(arith.ConstantOp.from_int(8, index)).result
    _, outer_body = _loop(b, one, eight, one, slot_i)
    upper = outer_body.insert(arith.SubiOp(eight, one))  # computed per outer iteration
    inner, inner_body = _loop(outer_body, one, upper.result, one, slot_j)
    inner_body.insert(fir.ResultOp([]))
    outer_body.insert(fir.ResultOp([]))
    b.insert(func.ReturnOp([]))

    _erase_emptied(inner, f)
    assert _names(f) == ["fir.alloca", "fir.alloca", "func.return"]
    ModuleOp([f]).verify()


def test_erasing_a_three_deep_nest_releases_every_nested_use():
    f, b = _function()
    slots = [b.insert(fir.AllocaOp(i32, name)).results[0] for name in "ijk"]
    one = b.insert(arith.ConstantOp.from_int(1, index)).result
    eight = b.insert(arith.ConstantOp.from_int(8, index)).result
    builder, loops = b, []
    for slot in slots:
        loop, builder = _loop(builder, one, eight, one, slot)
        loops.append(loop)
    total = builder.insert(arith.AddiOp(one, eight))  # outer values, three deep
    product = builder.insert(arith.MuliOp(total.result, eight))
    for loop in reversed(loops):
        Builder.at_end(loop.body.block).insert(fir.ResultOp([]))
    b.insert(func.ReturnOp([]))
    module = ModuleOp([f])
    module.verify()
    outer = loops[0]
    nested = list(outer.walk(include_self=False))
    assert len(nested) == 2 + 3 * 3 + 2 and all(v.uses for v in (one, eight, *slots))

    with pytest.raises(IRError, match="arith.addi: result %0 still has 1 use"):
        total.erase()
    _erase_and_sweep(product, f)  # what a lifted statement leaves behind
    assert [op.name for op in nested if op.parent is None] == ["arith.addi", "arith.muli"]
    _erase_emptied(outer, f)  # one erase takes the whole nest

    assert not any(v.uses for v in (one, eight, *slots))
    assert all(op.parent is None and not op.operands for op in nested)
    assert all(not block.ops for loop in loops
               for region in loop.regions for block in region.blocks)
    assert not any(result.uses for op in nested for result in op.results)
    # The worklist treats every one of them as gone, not as work.
    offered = []
    assert erase_and_fold(f, seeds=[outer, *nested], fold=offered.append) == 0
    assert offered == []
    erase_and_fold(f)
    assert _names(f) == ["fir.alloca"] * 3 + ["func.return"]
    module.verify()


# -- folds on the same worklist -----------------------------------------------

def _constant_chain():
    """``return ((2 + 3) * 4) - 1``."""
    f = func.FuncOp.build("g", [], [index])
    b = Builder.at_end(f.entry_block)
    two, three, four, one = (
        b.insert(arith.ConstantOp.from_int(v, index)).result for v in (2, 3, 4, 1))
    add = b.insert(arith.AddiOp(two, three))
    mul = b.insert(arith.MuliOp(add.result, four))
    sub = b.insert(arith.SubiOp(mul.result, one))
    b.insert(func.ReturnOp([sub.result]))
    return ModuleOp([f])


def test_fold_folds_a_chain_in_one_call():
    module = _constant_chain()
    folded = []

    def fold(op):
        constant = _fold_constant(op)
        if constant is not None:
            folded.append((op.name, constant.literal))
        return constant

    # Each fold revisits the new constant, then the users, then the definers:
    # the users fold in turn and every dead input and interim constant goes.
    assert erase_and_fold(module, fold=fold) == 6
    assert folded == [("arith.addi", 5), ("arith.muli", 20), ("arith.subi", 19)]
    assert [getattr(op, "literal", op.name) for op in module.walk()][2:] == [19, "func.return"]
    module.verify()


# -- the predicate's inputs ----------------------------------------------------

def test_every_op_the_old_name_tables_covered_declares_its_trait():
    dialects = default_context().dialects
    pure = [op for name in ("arith", "math") for op in dialects[name].operations]
    assert len(pure) > 30
    by_name = {op.name: op for d in dialects.values() for op in d.operations}
    pure += [by_name[name] for name in (
        "fir.convert", "fir.declare", "fir.coordinate_of", "stencil.access",
        "stencil.index", "builtin.unrealized_conversion_cast",
    )]
    read_only = [by_name[name] for name in (
        "fir.load", "memref.load", "stencil.load", "stencil.external_load",
    )]
    assert [op.name for op in pure if Pure not in op.traits] == []
    assert [op.name for op in read_only if ReadOnly not in op.traits] == []
    # Nothing is both: CSE keys on Pure alone.
    assert [op.name for op in by_name.values()
            if Pure in op.traits and ReadOnly in op.traits] == []


def test_two_fresh_sessions_print_identical_modules():
    source = pw_advection.generate_source(8)

    def printed():
        compiled = repro.Session().compile(source).lower("gpu", lower_to_scf=True)
        return print_module(compiled.fir_module) + print_module(compiled.stencil_module)

    assert printed() == printed()
