"""The mutation epoch: each IR state is verified once, and no other skip.

Every mutation primitive advances the process-wide epoch, so a module
verified before it is walked again; constructing detached IR advances
nothing.  Across every pass of every named pipeline on both apps, a module
whose ``verify()`` was skipped after a pass prints exactly as it did before
the pass.  ``Block.take_ops`` moves what a lowering keeps and refuses to
strand a use.
"""

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, func
from repro.dialects.builtin import ModuleOp
from repro.frontend import compile_to_fir
from repro.ir import (
    Block,
    Builder,
    IRError,
    Operation,
    PassManager,
    Region,
    UnitAttr,
    VerifyException,
    f64,
    print_module,
)
from repro.ir.ssa import EPOCH
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


#: name -> a mutation of a verified :class:`Small` through one primitive.
MUTATIONS = {
    "add_operand": lambda s: s.spare.add_operand(s.c.result),
    "set_operand": lambda s: s.spare.set_operand(0, s.c.result),
    "set_operands": lambda s: s.spare.set_operands([s.x, s.x]),
    "drop_all_operand_uses": lambda s: s.spare.drop_all_operand_uses(),
    "set_attr": lambda s: s.spare.set_attr("k2", UnitAttr()),
    "remove_attr": lambda s: s.spare.remove_attr("k"),
    "add_region": lambda s: s.spare.add_region(Region([Block()])),
    "detach": lambda s: s.neg.detach(),
    "erase": lambda s: s.neg.erase(),
    "erase_op": lambda s: s.entry.erase_op(s.neg),
    "add_arg": lambda s: s.inner.add_arg(f64),
    "add_block": lambda s: s.spare.regions[1].add_block(Block()),
    "add_op": lambda s: s.inner.add_op(Operation()),
    "add_ops": lambda s: s.inner.add_ops([Operation()]),
    "insert_op_at": lambda s: s.entry.insert_op_at(0, Operation()),
    "insert_op_before": lambda s: s.entry.insert_op_before(Operation(), s.ret),
    "insert_op_after": lambda s: s.entry.insert_op_after(Operation(), s.neg),
    "insert_ops_before": lambda s: s.entry.insert_ops_before([Operation()], s.ret),
    "take_ops": lambda s: s.inner.take_ops([s.neg]),
    "take_ops_region": lambda s: s.inner.take_ops(s.spare.regions[0]),
    "take_ops_value_map": lambda s: s.inner.take_ops(
        [s.neg], {s.add.result: s.x}),
    "replace_all_uses_with": lambda s: s.c.result.replace_all_uses_with(s.x),
    "remove_use": lambda s: s.x.remove_use(s.spare._uses[0]),
}


@pytest.mark.parametrize("name", MUTATIONS)
def test_every_mutation_primitive_makes_the_next_verify_walk(name, monkeypatch):
    small = Small()
    assert small.module.verify() == 8 and small.module.is_verified
    walks = []
    real = func.ReturnOp.verify_
    monkeypatch.setattr(func.ReturnOp, "verify_",
                        lambda op: walks.append(op) or real(op))
    small.module.verify()
    assert walks == []  # the state is the one already checked

    epoch = EPOCH[0]
    MUTATIONS[name](small)
    assert EPOCH[0] > epoch and not small.module.is_verified
    try:
        small.module.verify()
    except VerifyException:
        assert name == "remove_use"  # a dangling operand: the walk caught it
    else:
        assert walks == [small.ret] and small.module.is_verified


def test_building_detached_ir_takes_no_epoch():
    epoch = EPOCH[0]
    f = func.FuncOp.build("g", [f64, f64], [])
    Operation(operands=[f.entry_block.args[0]], attributes={"k": UnitAttr()},
              regions=[Region([Block([f64], [arith.ConstantOp.from_float(2.0)])])])
    arith.CmpfOp("olt", *f.entry_block.args)
    assert EPOCH[0] == epoch


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
    assert repr(statistics[2]).endswith("194->194 ops, verify 0.00 ms>")
