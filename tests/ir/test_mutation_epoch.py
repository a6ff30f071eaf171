"""Mutation marks: each IR state is verified once, and only what changed.

Every mutation primitive marks the operations it touched, so the next
``verify()`` of a module re-checks them and skips its clean subtrees;
constructing detached IR marks nothing.  A fault planted in a verified
module through the IR's own primitives, by hand or at random in a lowered
PW / GS module (``--fuzz-seeds`` deepens it), is found with the exception
and message a whole walk of a never-verified twin raises.  Across every pass of
every named pipeline on both apps, a module whose ``verify()`` was skipped
after a pass prints exactly as it did before the pass, and every verify of
a lowering agrees with a whole walk.  ``Block.take_ops`` moves what a
lowering keeps and refuses to strand a use.
"""

import functools
import random

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, func, gpu, scf
from repro.dialects.builtin import ModuleOp
from repro.frontend import compile_to_fir
from repro.ir import (
    Block,
    Builder,
    FunctionType,
    IRError,
    Operation,
    PassManager,
    Region,
    TypeAttr,
    UnitAttr,
    VerifyException,
    f64,
    index,
    operation,
    print_module,
)
from repro.ir.table import decode_module, encode_module
from repro.transforms.pipelines import PIPELINES
from repro.transforms.stencil_extraction import ExtractStencilsPass


class Small:
    """``f(%x)``: a constant, an add, a negation, an unregistered ``spare``
    op with an operand, an attribute and two single-block regions (the first
    holding one op), and the return."""

    def __init__(self):
        self.f = func.FuncOp.build("f", [f64], [])
        self.entry = self.f.entry_block
        self.x = self.entry.args[0]
        b = Builder.at_end(self.entry)
        self.c = b.insert(arith.ConstantOp.from_float(1.0))
        self.add = b.insert(arith.AddfOp(self.x, self.c.result))
        self.neg = b.insert(arith.NegfOp(self.add.result))
        self.spare = b.insert(Operation(
            operands=[self.x], attributes={"k": UnitAttr()},
            regions=[Region([Block(ops=[Operation()])]), Region([Block()])]))
        self.ret = b.insert(func.ReturnOp([]))
        self.module = ModuleOp([self.f])
        self.inner = self.spare.regions[1].block


#: name -> (a mutation of a verified :class:`Small` through one primitive,
#: the operation it touched, which the next ``verify()`` must re-check).
MUTATIONS = {
    "add_operand": (lambda s: s.spare.add_operand(s.c.result), lambda s: s.spare),
    "set_operand": (lambda s: s.spare.set_operand(0, s.c.result), lambda s: s.spare),
    "set_operands": (lambda s: s.spare.set_operands([s.x, s.x]), lambda s: s.spare),
    "drop_all_operand_uses": (lambda s: s.spare.drop_all_operand_uses(),
                              lambda s: s.spare),
    "set_attr": (lambda s: s.spare.set_attr("k2", UnitAttr()), lambda s: s.spare),
    "remove_attr": (lambda s: s.spare.remove_attr("k"), lambda s: s.spare),
    "add_region": (lambda s: s.spare.add_region(Region([Block()])), lambda s: s.spare),
    # An op leaving a block re-checks the op that holds the block.
    "detach": (lambda s: s.neg.detach(), lambda s: s.f),
    "erase": (lambda s: s.neg.erase(), lambda s: s.f),
    "erase_op": (lambda s: s.entry.erase_op(s.neg), lambda s: s.f),
    "add_arg": (lambda s: s.inner.add_arg(f64), lambda s: s.spare),
    "add_block": (lambda s: s.spare.regions[1].add_block(Block()), lambda s: s.spare),
    "add_op": (lambda s: s.inner.add_op(Operation()), lambda s: s.inner.ops[-1]),
    "add_ops": (lambda s: s.inner.add_ops([Operation()]), lambda s: s.inner.ops[-1]),
    "insert_op_at": (lambda s: s.entry.insert_op_at(0, Operation()),
                     lambda s: s.entry.ops[0]),
    "insert_op_before": (lambda s: s.entry.insert_op_before(Operation(), s.ret),
                         lambda s: s.entry.ops[-2]),
    "insert_op_after": (lambda s: s.entry.insert_op_after(Operation(), s.neg),
                        lambda s: s.entry.ops[3]),
    "insert_ops_before": (lambda s: s.entry.insert_ops_before([Operation()], s.ret),
                          lambda s: s.entry.ops[-2]),
    "take_ops": (lambda s: s.inner.take_ops([s.neg]), lambda s: s.neg),
    "take_ops_region": (lambda s: s.inner.take_ops(s.spare.regions[0]),
                        lambda s: s.inner.ops[0]),
    "take_ops_value_map": (lambda s: s.inner.take_ops([s.neg], {s.add.result: s.x}),
                           lambda s: s.neg),
    # The users of the value replaced are the ops touched.
    "replace_all_uses_with": (lambda s: s.c.result.replace_all_uses_with(s.x),
                              lambda s: s.add),
    "remove_use": (lambda s: s.x.remove_use(s.spare._uses[0]), lambda s: s.spare),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_mutation_primitive_makes_the_next_verify_walk(name, rechecked):
    small = Small()
    assert small.module.verify() == 8 and small.module.is_verified
    assert rechecked(small.module.verify) == []  # the state already checked

    mutate, touched = MUTATIONS[name]
    mutate(small)
    assert not small.module.is_verified
    try:
        walks = rechecked(small.module.verify)
    except VerifyException:
        assert name == "remove_use"  # a dangling operand: the walk caught it
    else:
        # The touched op, and not the constant nothing touched.
        assert touched(small) in walks and small.c not in walks, walks
        assert small.module.is_verified
        assert small.module.verify() == sum(1 for _ in small.module.walk())


def test_building_detached_ir_marks_nothing(rechecked):
    small = Small()
    small.module.verify()
    f = func.FuncOp.build("g", [f64, f64], [])
    Operation(operands=[small.x], attributes={"k": UnitAttr()},
              regions=[Region([Block([f64], [arith.ConstantOp.from_float(2.0)])])])
    arith.CmpfOp("olt", *f.entry_block.args)
    assert small.module.is_verified
    assert rechecked(small.module.verify) == []


class Nested:
    """``builtin.module { %c; func.func @host(%a, %b) { %s = addf; %n = negf
    %s; return %n }; gpu.module { gpu.func @kernel(%x) { %m = negf %x;
    gpu.return } } }``."""

    def __init__(self):
        self.kernel = gpu.GPUFuncOp("kernel", [f64])
        kb = Builder.at_end(self.kernel.entry_block)
        self.deep = kb.insert(arith.NegfOp(self.kernel.entry_block.args[0]))
        self.kernel_ret = kb.insert(gpu.ReturnOp())
        self.device = gpu.GPUModuleOp([self.kernel])
        self.host = func.FuncOp.build("host", [f64, f64], [f64])
        hb = Builder.at_end(self.host.entry_block)
        self.add = hb.insert(arith.AddfOp(*self.host.entry_block.args))
        self.neg = hb.insert(arith.NegfOp(self.add.result))
        hb.insert(func.ReturnOp([self.neg.result]))
        self.const = arith.ConstantOp.from_float(1.0)
        self.module = ModuleOp([self.const, self.host, self.device])


def _failing_hook():
    raise VerifyException("arith.negf: injected failure")


def _move_after_its_user(n):
    n.add.detach()
    n.host.entry_block.insert_op_after(n.add, n.neg)


def _use_a_loop_value_after_the_loop(n):
    bounds = [arith.ConstantOp.from_int(v, index) for v in (0, 4, 1)]
    loop = scf.ForOp(*(bound.result for bound in bounds))
    body = Builder.at_end(loop.body.block)
    inside = body.insert(arith.NegfOp(n.add.result))
    body.insert(scf.YieldOp())
    n.host.entry_block.insert_ops_before([*bounds, loop], n.neg)
    n.neg.set_operand(0, inside.result)


def _use_a_then_value_in_the_else_region(n):
    cond = arith.CmpfOp("olt", *n.host.entry_block.args)
    branch = scf.IfOp(cond.result, else_region=Region([Block()]))
    then = Builder.at_end(branch.then_block)
    taken = then.insert(arith.NegfOp(n.add.result))
    then.insert(scf.YieldOp())
    otherwise = Builder.at_end(branch.regions[1].block)
    otherwise.insert(arith.NegfOp(taken.result))
    otherwise.insert(scf.YieldOp())
    n.host.entry_block.insert_ops_before([cond, branch], n.neg)


#: name -> (one fault planted in a :class:`Nested` through the IR's own
#: primitives, the message a whole walk of the module raises).
FAULTS = {
    "a use deregistered": (
        lambda n: n.add.operands[1].remove_use(n.add._uses[1]),
        "arith.addf: operand 1 does not have a registered use"),
    "an op moved after its user": (
        _move_after_its_user,
        "arith.negf: operand 0 is used before its definition"),
    "a value from outside an isolated op": (
        lambda n: n.deep.set_operand(0, n.const.result),
        "gpu.module: operation arith.negf references a value defined outside "
        "of an IsolatedFromAbove region"),
    "an op after the terminator": (
        lambda n: n.kernel.entry_block.insert_op_after(
            arith.ConstantOp.from_float(2.0), n.kernel_ret),
        "terminator gpu.return must be the last operation in its block"),
    "a second block in a single-block region": (
        lambda n: n.device.regions[0].add_block(Block()),
        "gpu.module: region 0 must contain exactly one block, found 2"),
    "an op detached while in use": (
        lambda n: n.add.detach(),
        "builtin.module: operation arith.negf references a value defined outside "
        "of an IsolatedFromAbove region"),
    "an op erased while in use": (
        lambda n: n.add.erase(safe=False),
        "builtin.module: operation arith.negf references a value defined outside "
        "of an IsolatedFromAbove region"),
    "a signature changed under its return": (
        lambda n: n.host.set_attr("function_type",
                                  TypeAttr(FunctionType([f64, f64], []))),
        "func.return: operand types ['f64'] do not match function results []"),
    "a failing hook on a changed op deep in one function": (
        lambda n: (setattr(n.deep, "verify_", _failing_hook),
                   n.deep.set_attr("k", UnitAttr())),
        "arith.negf: injected failure"),
    "a loop-body value used after the loop": (
        _use_a_loop_value_after_the_loop,
        "arith.negf: operand 0 is used outside the region that defines it"),
    "a value taken from a sibling op's region": (
        lambda n: n.deep.set_operand(0, n.add.result),
        "arith.negf: operand 0 is used outside the region that defines it"),
    "a region-0 value used in region 1 of the same op": (
        _use_a_then_value_in_the_else_region,
        "arith.negf: operand 0 is used outside the region that defines it"),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_planted_in_a_verified_module_raises_what_a_whole_walk_does(fault):
    plant, message = FAULTS[fault]
    verified, fresh = Nested(), Nested()
    assert verified.module.verify() == 10 and verified.module.is_verified
    for nested in (verified, fresh):  # re-checked by its marks; walked whole
        plant(nested)
        for _ in range(2):  # a failed verify keeps what it has to check
            with pytest.raises(VerifyException) as caught:
                nested.module.verify()
            assert str(caught.value) == message
            assert not nested.module.is_verified


def _ancestors(op):
    """``op`` and the operations that hold it, innermost first."""
    while op is not None:
        yield op
        op = op.parent_op()


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _set_operand_to(ops, rng, candidates):
    """Set an operand of a random user to a random one of
    ``candidates(user)``; False if no user has any."""
    for user in _shuffled(rng, (op for op in ops if op.operands)):
        values = candidates(user)
        if values:
            user.set_operand(rng.randrange(len(user.operands)), rng.choice(values))
            return True
    return False


def _plant_later_value(ops, rng):
    """A value defined at or after its user in pre-order: a later result,
    the user's own, or an ancestor's."""
    return _set_operand_to(ops, rng, lambda user: [
        r for op in ops[ops.index(user):] + list(_ancestors(user)) for r in op.results])


def _plant_escaped_value(ops, rng):
    """A value met earlier, in a block that does not hold its user."""
    def candidates(user):
        around = [op.parent for op in _ancestors(user)]
        return [r for op in ops[:ops.index(user)] if op.parent not in around
                for r in op.results]
    return _set_operand_to(ops, rng, candidates)


def _plant_deregistered_use(ops, rng):
    user = rng.choice([op for op in ops if op.operands])
    slot = rng.randrange(len(user.operands))
    user.operands[slot].remove_use(user._uses[slot])
    return True


def _used(ops):
    return [op for op in ops[1:] if any(r.uses for r in op.results)]


def _plant_detached_in_use(ops, rng):
    rng.choice(_used(ops)).detach()
    return True


def _plant_erased_in_use(ops, rng):
    rng.choice(_used(ops)).erase(safe=False)
    return True


def _plant_moved_after_its_user(ops, rng):
    """A definition moved after the op of its block that holds a user."""
    for definer in _shuffled(rng, _used(ops)):
        users = [use.operation for r in definer.results for use in r.uses]
        holder = next(op for op in _ancestors(rng.choice(users))
                      if op.parent is definer.parent)
        if holder is not definer:
            definer.detach()
            holder.parent.insert_op_after(definer, holder)
            return True
    return False


PLANTS = [_plant_later_value, _plant_escaped_value, _plant_deregistered_use,
          _plant_detached_in_use, _plant_erased_in_use, _plant_moved_after_its_user]


def _plant(module, seed):
    """Plant one fault in ``module``, the same for the same seed and IR:
    the kind ``seed`` picks, or the next one the IR has room for."""
    rng = random.Random(seed)
    ops = list(module.walk())
    for k in range(len(PLANTS)):
        plant = PLANTS[(seed + k) % len(PLANTS)]
        if plant(ops, rng):
            return plant.__name__
    raise AssertionError("no fault fits")


@functools.lru_cache(maxsize=None)
def _lowered_tables(app, backend):
    """The op tables of ``app``'s FIR and stencil modules, lowered for
    ``backend`` (cpu at the scf level, or gpu)."""
    handle = repro.Session().lower(SOURCES[app], backend, lower_to_scf=True)
    return encode_module(handle.fir_module), encode_module(handle.stencil_module)


def _two_faults(module):
    """What two ``verify()`` calls of ``module`` raise: (class, message)."""
    faults = []
    for _ in range(2):
        with pytest.raises(Exception) as caught:
            module.verify()
        faults.append((type(caught.value), str(caught.value)))
        assert not module.is_verified
    return faults


def test_a_random_fault_in_a_lowered_module_raises_what_a_fresh_twin_does(fuzz_seeds):
    """One fault planted through the mutation primitives into a verified PW
    or GS module (cpu at the scf level, or gpu), FIR or stencil, raises the
    class and message a never-verified twin decoded from the same op table
    raises, twice.  Ten seeds plant every kind of fault."""
    planted = set()
    for seed in range(fuzz_seeds):
        rng = random.Random(-1 - seed)
        tables = _lowered_tables(rng.choice(sorted(SOURCES)), rng.choice(("cpu", "gpu")))
        table = rng.choice(tables)
        verified, fresh = decode_module(table), decode_module(table)
        verified.verify()
        assert verified.is_verified and not fresh.is_verified
        kind = _plant(verified, seed)
        assert _plant(fresh, seed) == kind
        assert _two_faults(verified) == _two_faults(fresh), (seed, kind)
        planted.add(kind)
    assert len(planted) == len(PLANTS) or fuzz_seeds < 10


def test_a_definition_placed_after_a_clean_user_is_found():
    """Under a root that isolates nothing, a use of a value from outside is
    legal; the definition arriving after that user, built new or moved back,
    makes the user's use come first.  A value nested in an op that arrives
    is one from outside the region that defines it."""
    cases = [(False, False, "used before its definition"),
             (False, True, "used before its definition"),
             (True, False, "used outside the region that defines it")]
    for nested, verified_before, fault in cases:
        inner = arith.ConstantOp.from_float(3.0)
        holder = Operation(regions=[Region([Block(ops=[inner])])]) if nested else inner
        user = arith.NegfOp(inner.result)
        # Not the block's last op, which an insertion at the end re-checks.
        root = Operation(regions=[Region([Block(ops=[user, Operation()])])])
        if verified_before:  # the definition was in the root, before its user
            root.regions[0].block.insert_op_at(0, holder)
            assert root.verify() == 4
            holder.detach()
        assert root.verify() == 3
        root.regions[0].block.add_op(holder)
        with pytest.raises(VerifyException, match=f"arith.negf: operand 0 is {fault}"):
            root.verify()


def test_take_ops_moves_a_nested_definition_with_its_users():
    """``take_ops`` refuses to strand a use of what a moved op defines; a
    value nested in it is visible only inside it, so its users move with it,
    and a user outside it is refused wherever it sits."""
    inner = arith.ConstantOp.from_float(3.0)
    holder = Operation(regions=[Region([Block(ops=[inner, arith.NegfOp(inner.result)])])])
    later = Operation(regions=[Region([Block()])])
    root = Operation(regions=[Region([Block(ops=[holder, later])])])
    assert root.verify() == 5
    later.regions[0].block.take_ops([holder])
    assert root.verify() == 5
    root.regions[0].block.add_op(arith.NegfOp(inner.result))
    with pytest.raises(VerifyException, match="arith.negf: operand 0 is used "
                                              "outside the region that defines it"):
        root.verify()


def test_a_use_of_a_value_nested_in_a_clean_op_is_refused_wherever_it_sits():
    """The walk skips a clean op and what is nested in it; a changed op using
    such a value uses it outside the region that defines it, before or after
    the op that holds it, and a whole walk of a fresh twin says the same."""
    def build():
        f = func.FuncOp.build("f", [], [])
        inner = arith.ConstantOp.from_float(3.0)
        b = Builder.at_end(f.entry_block)
        b.insert(Operation(regions=[Region([Block(ops=[inner])])]))
        user = b.insert(arith.NegfOp(b.insert(arith.ConstantOp.from_float(1.0)).result))
        b.insert(func.ReturnOp([]))
        return ModuleOp([f]), f, inner, user

    fault = "arith.negf: operand 0 is used outside the region that defines it"
    for verified_before in (True, False):
        module, f, inner, user = build()
        if verified_before:
            assert module.verify() == 7
        user.set_operand(0, inner.result)
        for _ in range(2):
            with pytest.raises(VerifyException, match=fault):
                module.verify()
        user.detach()
        f.entry_block.insert_op_at(0, user)
        with pytest.raises(VerifyException, match=fault):
            module.verify()


def test_a_clean_function_is_not_rechecked(rechecked):
    """A change deep in one function re-checks what it touched there; the
    other function is counted, not walked."""
    nested = Nested()
    assert nested.module.verify() == 10
    nested.deep.set_attr("k", UnitAttr())
    walks = rechecked(nested.module.verify)
    assert nested.deep in walks and not set(walks) & set(nested.host.walk())
    assert nested.module.verify() == 10


def test_take_ops_moves_without_building_and_remaps_nested_operands():
    small = Small()
    nested = small.spare.regions[0].block.ops[0]
    nested.add_operand(small.add.result)
    dest = Block()
    built = []
    real = Operation.__init__
    try:
        Operation.__init__ = lambda op, *a, **k: built.append(op) or real(op, *a, **k)
        dest.take_ops([small.add, small.neg, small.spare], {small.x: small.c.result})
    finally:
        Operation.__init__ = real
    assert built == []
    assert dest.ops == (small.add, small.neg, small.spare)
    assert all(op.parent is dest for op in dest.ops)
    assert small.entry.ops == (small.c, small.ret)
    assert small.add.operands == (small.c.result, small.c.result)
    # Operands of ops nested in a moved op are remapped too.
    assert small.spare.operands == (small.c.result,)
    assert nested.operands == (small.add.result,)


def test_take_ops_moves_only_a_run_of_one_block():
    small = Small()
    with pytest.raises(IRError, match="consecutive"):
        small.inner.take_ops([small.c, small.neg])
    with pytest.raises(IRError, match="consecutive"):
        small.inner.take_ops([Operation()])
    with pytest.raises(IRError, match="into its own region"):
        small.inner.take_ops([small.spare])


def test_a_move_that_would_strand_a_use_raises_naming_both_ops():
    small = Small()
    with pytest.raises(IRError, match=r"arith\.addf would strand its use by arith\.negf"):
        small.inner.take_ops([small.c, small.add])
    # Nothing moved.
    assert small.entry.ops[:3] == (small.c, small.add, small.neg)
    small.module.verify()


def test_extracting_a_segment_whose_result_stays_in_use_raises():
    """A hand-built extraction segment ``[constant, negf]`` whose ``negf``
    still feeds an ``addf`` left behind: cloning the segment and erasing it
    unsafely would have left that use dangling without a word."""
    f = func.FuncOp.build("f", [], [])
    b = Builder.at_end(f.entry_block)
    const = b.insert(arith.ConstantOp.from_float(1.0))
    neg = b.insert(arith.NegfOp(const.result))
    b.insert(arith.AddfOp(neg.result, neg.result))
    b.insert(func.ReturnOp([]))
    module = ModuleOp([f])
    with pytest.raises(IRError, match=r"arith\.negf would strand its use by arith\.addf"):
        ExtractStencilsPass()._extract_segment(
            module, f, f.entry_block, [const, neg], "_stencil_f_0")


SOURCES = {
    "pw": pw_advection.generate_source(8, niters=2),
    "gs": gauss_seidel.generate_source(8, niters=3),
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("app", SOURCES)
def test_a_pass_whose_verify_was_skipped_left_the_module_byte_identical(
        app, pipeline, monkeypatch):
    if pipeline == "fir-stencil":
        module = compile_to_fir(SOURCES[app])
    else:
        module = repro.Session().compile(SOURCES[app]).lower("cpu").stencil_module
    pm = PassManager().add_pipeline(PIPELINES[pipeline])
    skipped = []
    for pass_instance in pm.passes:
        def apply(m, real=pass_instance.apply, name=pass_instance.name):
            before = print_module(m)
            real(m)
            if m.is_verified:
                skipped.append(name)
                assert print_module(m) == before, name
        monkeypatch.setattr(pass_instance, "apply", apply)
    statistics = pm.run(module)
    assert [s.name for s in statistics if s.verify_seconds == 0.0] == skipped
    assert len(statistics) == len(pm.passes)


def test_the_gpu_pipeline_verifies_only_the_states_its_passes_made():
    handle = repro.Session().compile(SOURCES["pw"]).lower("gpu", lower_to_scf=True)
    statistics = handle.pass_statistics
    assert [(s.name, s.verify_seconds > 0.0) for s in statistics] == [
        ("convert-stencil-to-scf", True),
        ("scf-parallel-loop-tiling", True),
        ("canonicalize", False),  # the tiled loops were already canonical
        ("convert-parallel-loops-to-gpu", True),
        ("canonicalize", True),
        ("reconcile-unrealized-casts", False),  # no cast to reconcile
    ]
    assert statistics[2].verify_seconds == statistics[5].verify_seconds == 0.0
    # 194 before the lowering built each bound once per function.
    assert repr(statistics[2]).endswith("189->189 ops, verify 0.00 ms>")


@pytest.mark.parametrize("backend, options", [
    ("cpu", {}), ("cpu", {"fuse_stencils": False}), ("openmp", {}), ("gpu", {}),
    ("gpu", {"data_strategy": "host_register"}), ("dmp", {"grid": (2, 2)}),
])
@pytest.mark.parametrize("app", SOURCES)
def test_every_verify_of_a_lower_agrees_with_a_whole_walk(app, backend, options,
                                                          monkeypatch):
    """Each ``verify()`` a lowering makes re-checks by marks; the state it
    passed also passes a whole walk, and holds the ops it counted."""
    real = Operation.verify
    passed = []

    def verify(op):
        count = real(op)
        operation._recheck(op, False)
        assert count == sum(1 for _ in op.walk()), op.name
        passed.append(op)
        return count

    monkeypatch.setattr(Operation, "verify", verify)
    repro.Session().compile(SOURCES[app]).lower(backend, **options)
    assert len(passed) >= 3
