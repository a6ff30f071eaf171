"""Unit tests for SSA values, operations, blocks, regions, builder and traits."""

import random

import pytest

from repro.dialects import arith, func, gpu, scf
from repro.dialects.builtin import ModuleOp
from repro.ir.ssa import Use
from repro.ir import (
    Block,
    Builder,
    IRError,
    InsertPoint,
    Operation,
    ParseError,
    Region,
    VerifyException,
    f64,
    index,
    parse_module,
    print_module,
)


def make_add_function():
    f = func.FuncOp.build("add", [f64, f64], [f64])
    b = Builder.at_end(f.entry_block)
    add = b.insert(arith.AddfOp(f.entry_block.args[0], f.entry_block.args[1]))
    b.insert(func.ReturnOp([add.result]))
    return f, add


class TestUseDefChains:
    def test_results_track_uses(self):
        f, add = make_add_function()
        arg0 = f.entry_block.args[0]
        assert any(u.operation is add for u in arg0.uses)
        assert len(add.result.uses) == 1

    def test_replace_all_uses_with(self):
        f, add = make_add_function()
        b = Builder.at_start(f.entry_block)
        c = b.insert(arith.ConstantOp.from_float(1.0))
        add.result.replace_all_uses_with(c.result)
        ret = f.entry_block.last_op
        assert ret.operands[0] is c.result
        assert not add.result.has_uses

    def test_erase_with_uses_raises(self):
        f, add = make_add_function()
        with pytest.raises(IRError):
            add.erase()

    def test_erase_after_dropping_uses(self):
        f, add = make_add_function()
        ret = f.entry_block.last_op
        ret.erase()
        add.erase()
        assert len(f.entry_block.ops) == 0

    def test_set_operand_updates_uses(self):
        f, add = make_add_function()
        arg0, arg1 = f.entry_block.args
        add.set_operand(0, arg1)
        assert not any(u.operation is add for u in arg0.uses)
        assert sum(1 for u in arg1.uses if u.operation is add) == 2


    def test_removing_an_unregistered_use_raises(self):
        f, add = make_add_function()
        arg0, arg1 = f.entry_block.args
        with pytest.raises(ValueError, match="not registered"):
            arg0.remove_use(Use(add, 0))  # a look-alike is not the slot's own use
        arg1.uses.popitem()
        with pytest.raises(ValueError, match="not registered"):
            add.set_operand(1, arg0)
        with pytest.raises(ValueError, match="not registered"):
            add.drop_all_operand_uses()
        f.entry_block.last_op.erase()
        with pytest.raises(ValueError, match="not registered"):
            add.erase()

    def test_uses_keep_insertion_order_under_seeded_mutation(self, fuzz_seeds):
        """``uses`` against the plain list it replaced (append on register,
        remove the matching entry on release), after every step of a random
        interleaving of every operand mutation; ``verify()`` holds throughout."""
        for seed in range(fuzz_seeds):
            rng = random.Random(seed)
            f = func.FuncOp.build("f", [f64] * 3, [])
            block = f.entry_block
            ret = func.ReturnOp([])
            block.add_op(ret)
            module = ModuleOp([f])
            model = {arg: [] for arg in block.args}  # value -> [(op, index)]

            def visible(op):
                """Values defined before ``op``: the arguments, earlier results."""
                return list(block.args) + [
                    o.result for o in block.ops[:block.index_of(op)] if o.results]

            def release(op):
                for i, old in enumerate(op.operands):
                    model[old].remove((op, i))

            def set_operand(op, i, value):
                model[op.operands[i]].remove((op, i))
                model[value].append((op, i))
                op.set_operand(i, value)

            for _ in range(60):
                ops = [op for op in block.ops if op is not ret]
                step = rng.choice(["new", "add", "set", "set_all", "rauw", "erase"])
                if step == "new" or not ops:
                    op = Operation(result_types=[f64])
                    block.insert_op_before(op, ret)
                    model[op.result] = []
                    ops.append(op)
                    step = "set_all"
                op = rng.choice(ops)
                if step == "add":
                    value = rng.choice(visible(op))
                    model[value].append((op, len(op.operands)))
                    op.add_operand(value)
                elif step == "set" and op.operands:
                    set_operand(op, rng.randrange(len(op.operands)),
                                rng.choice(visible(op)))
                elif step == "set_all":
                    values = rng.choices(visible(op), k=rng.randrange(4))
                    release(op)
                    for i, value in enumerate(values):
                        model[value].append((op, i))
                    op.set_operands(values)
                elif step == "rauw":
                    new = rng.choice(visible(op))
                    for user, i in list(model[op.result]):
                        model[op.result].remove((user, i))
                        model[new].append((user, i))
                    op.result.replace_all_uses_with(new)
                elif step == "erase" and not model[op.result]:
                    release(op)
                    del model[op.result]
                    op.erase()
                for value, expected in model.items():
                    assert [(u.operation, u.index) for u in value.uses] == expected
                    assert len(value.uses) == len(expected)
                    assert bool(value.uses) == value.has_uses == bool(expected)
                module.verify()


def reference_walk(op, include_self=True):
    """``Operation.walk`` as a recursive generator, a frame per nesting level:
    what the single iterative generator replaced and must agree with."""
    if include_self:
        yield op
    for region in op.regions:
        for block in region.blocks:
            for inner in list(block.ops):
                yield from reference_walk(inner)


class TestWalk:
    @staticmethod
    def nest():
        """module { func { c0 c1 c2; for { for { neg; neg; yield }; neg; yield };
        if { neg } else { neg; neg }; return } } — two regions on the if."""
        f = func.FuncOp.build("f", [f64], [])
        b = Builder.at_end(f.entry_block)
        bounds = [b.insert(arith.ConstantOp.from_int(v, index)).result for v in (0, 4, 1)]
        outer = b.insert(scf.ForOp(*bounds))
        ob = Builder.at_end(outer.regions[0].block)
        inner = ob.insert(scf.ForOp(*bounds))
        ib = Builder.at_end(inner.regions[0].block)
        for builder, count in ((ib, 2), (ob, 1)):
            for _ in range(count):
                builder.insert(arith.NegfOp(f.entry_block.args[0]))
            builder.insert(scf.YieldOp([]))
        cond = b.insert(arith.CmpiOp("slt", bounds[0], bounds[1]))
        branch = b.insert(scf.IfOp(cond.result, else_region=Region([Block()])))
        for region, count in zip(branch.regions, (1, 2)):
            for _ in range(count):
                region.block.add_op(arith.NegfOp(f.entry_block.args[0]))
        b.insert(func.ReturnOp([]))
        return ModuleOp([f])

    SCRIPTS = {
        "read only": lambda op, k: None,
        "erase the yielded op": lambda op, k: op.erase()
        if op.name in ("arith.negf", "scf.for") and k % 2 else None,
        "erase its next sibling": lambda op, k: op.next_op().erase()
        if op.next_op() and op.next_op().name in ("arith.negf", "scf.for") else None,
        "insert before it": lambda op, k: op.parent.insert_op_before(
            arith.ConstantOp.from_float(float(k)), op) if op.parent else None,
        "insert after it": lambda op, k: op.parent.insert_op_after(
            arith.ConstantOp.from_float(float(k)), op)
        if op.parent and op is not op.parent.last_op else None,
    }

    @pytest.mark.parametrize("script", SCRIPTS)
    @pytest.mark.parametrize("include_self", [True, False])
    def test_same_sequence_as_the_recursive_walk_under_mutation(self, script, include_self):
        sequences = []
        for walk in (Operation.walk, reference_walk):
            module = self.nest()
            position = {op: i for i, op in enumerate(reference_walk(module))}
            seen = []
            for k, op in enumerate(walk(module, include_self=include_self)):
                seen.append((position.get(op, "new"), op.name, op.parent is None))
                self.SCRIPTS[script](op, k)
            module.verify()
            sequences.append(seen)
        assert sequences[0] == sequences[1]
        assert len(sequences[0]) > 10

    def test_block_and_region_walks_go_through_the_same_walk(self):
        module = self.nest()
        body = module.regions[0]
        assert list(body.walk()) == list(body.block.walk()) == \
            list(module.walk(include_self=False))


class TestStructure:
    def test_parent_links(self):
        f, add = make_add_function()
        assert add.parent_block() is f.entry_block
        assert add.parent_op() is f
        module = ModuleOp([f])
        assert f.parent_op() is module
        assert module.is_ancestor_of(add)

    def test_walk_order(self):
        f, add = make_add_function()
        module = ModuleOp([f])
        names = [op.name for op in module.walk()]
        assert names == ["builtin.module", "func.func", "arith.addf", "func.return"]

    def test_next_prev_op(self):
        f, add = make_add_function()
        ret = f.entry_block.last_op
        assert add.next_op() is ret
        assert ret.prev_op() is add
        assert add.prev_op() is None

    def test_block_insert_before_after(self):
        block = Block()
        a = arith.ConstantOp.from_float(1.0)
        c = arith.ConstantOp.from_float(3.0)
        block.add_op(a)
        block.add_op(c)
        b = arith.ConstantOp.from_float(2.0)
        block.insert_op_after(b, a)
        assert [op.literal for op in block.ops] == [1.0, 2.0, 3.0]

    def test_cannot_attach_twice(self):
        block = Block()
        op = arith.ConstantOp.from_float(1.0)
        block.add_op(op)
        other = Block()
        with pytest.raises(IRError):
            other.add_op(op)

    def test_module_symbol_lookup(self):
        f, _ = make_add_function()
        module = ModuleOp([f])
        assert module.get_symbol("add") is f
        assert module.get_symbol("missing") is None


class TestClone:
    def test_clone_is_deep_and_independent(self):
        f, add = make_add_function()
        clone = f.clone()
        assert clone is not f
        assert len(clone.entry_block.ops) == len(f.entry_block.ops)
        clone.entry_block.ops[0].attributes["marker"] = arith.StringAttr("x") \
            if hasattr(arith, "StringAttr") else None
        # original remains unchanged structurally
        assert len(f.entry_block.ops) == 2

    def test_clone_remaps_internal_values(self):
        f, add = make_add_function()
        clone = f.clone()
        cloned_add = clone.entry_block.ops[0]
        cloned_ret = clone.entry_block.ops[1]
        assert cloned_ret.operands[0] is cloned_add.results[0]
        assert cloned_add.operands[0] is clone.entry_block.args[0]


class TestVerification:
    def test_valid_function_verifies(self):
        f, _ = make_add_function()
        ModuleOp([f]).verify()

    def test_return_type_mismatch_detected(self):
        f = func.FuncOp.build("bad", [f64], [f64])
        b = Builder.at_end(f.entry_block)
        b.insert(func.ReturnOp([]))
        with pytest.raises(VerifyException):
            f.verify()

    def test_terminator_must_be_last(self):
        f = func.FuncOp.build("bad2", [f64], [])
        b = Builder.at_end(f.entry_block)
        b.insert(func.ReturnOp([]))
        b.insert(arith.ConstantOp.from_float(1.0))
        with pytest.raises(VerifyException):
            f.verify()

    def test_binary_op_type_mismatch(self):
        block = Block(arg_types=[f64, index])
        with pytest.raises(VerifyException):
            arith.AddfOp(block.args[0], block.args[1]).verify()

    def test_isolated_from_above(self):
        outer = func.FuncOp.build("outer", [f64], [])
        inner = func.FuncOp.build("inner", [], [])
        bi = Builder.at_end(inner.entry_block)
        # Illegally reference the outer function's argument.
        bi.insert(arith.NegfOp(outer.entry_block.args[0]))
        bi.insert(func.ReturnOp([]))
        with pytest.raises(VerifyException):
            inner.verify()


def make_nested_module():
    """builtin.module { %c; func.func @host; gpu.module { gpu.func { ... } } }."""
    kernel = gpu.GPUFuncOp("kernel", [f64])
    kb = Builder.at_end(kernel.entry_block)
    neg = kb.insert(arith.NegfOp(kernel.entry_block.args[0]))
    ret = kb.insert(gpu.ReturnOp())
    device = gpu.GPUModuleOp([kernel])
    host, add = make_add_function()
    const = arith.ConstantOp.from_float(1.0)
    return ModuleOp([const, host, device]), const, host, add, device, kernel, neg, ret


class TestVerifierRejects:
    """One defect per module; the message is the one the recursive verifier
    gave, so the single-pass one provably still checks the same things."""

    def test_nested_module_verifies_from_every_level(self):
        module, _, host, _, device, kernel, _, _ = make_nested_module()
        for op in (module, host, device, kernel):
            op.verify()

    def test_operand_without_registered_use(self):
        module, _, host, add, *_ = make_nested_module()
        host.entry_block.args[1].uses.popitem()
        with pytest.raises(VerifyException, match="arith.addf: operand 1 does not have a registered use"):
            module.verify()

    def test_region_with_wrong_parent(self):
        module, _, host, *_ = make_nested_module()
        host.regions[0].parent = module
        with pytest.raises(VerifyException, match="func.func: region has wrong parent"):
            module.verify()

    def test_block_with_wrong_parent(self):
        module, _, host, _, device, *_ = make_nested_module()
        host.entry_block.parent = device.regions[0]
        with pytest.raises(VerifyException, match="func.func: block has wrong parent region"):
            module.verify()

    def test_op_with_wrong_parent(self):
        module, _, host, add, _, kernel, *_ = make_nested_module()
        add.parent = kernel.entry_block
        with pytest.raises(
            VerifyException, match="func.func: nested op arith.addf has wrong parent block"
        ):
            module.verify()

    def test_terminator_not_last(self):
        module, _, _, _, _, kernel, *_ = make_nested_module()
        kernel.entry_block.add_op(arith.ConstantOp.from_float(2.0))
        with pytest.raises(
            VerifyException,
            match="terminator gpu.return must be the last operation in its block",
        ):
            module.verify()

    def test_single_block_region_with_two_blocks(self):
        module, _, _, _, device, *_ = make_nested_module()
        device.regions[0].add_block(Block())
        with pytest.raises(
            VerifyException,
            match="gpu.module: region 0 must contain exactly one block, found 2",
        ):
            module.verify()

    def test_symbol_without_sym_name(self):
        module, _, _, _, _, kernel, *_ = make_nested_module()
        del kernel.attributes["sym_name"]
        with pytest.raises(
            VerifyException, match="gpu.func: symbol operation requires 'sym_name'"
        ):
            module.verify()

    def test_failing_hook_on_deeply_nested_op(self):
        module, *_, neg, _ = make_nested_module()

        def failing_hook():
            raise VerifyException("arith.negf: injected failure")

        neg.verify_ = failing_hook
        with pytest.raises(VerifyException, match="arith.negf: injected failure"):
            module.verify()

    def test_every_hook_runs_exactly_once_in_pre_order(self):
        module = make_nested_module()[0]
        seen = []
        for op in module.walk():
            def recording_hook(op=op, hook=op.verify_):
                seen.append(op)
                hook()
            op.verify_ = recording_hook
        module.verify()
        assert seen == list(module.walk())

    def test_isolation_violated_at_depth_1(self):
        module, const, host, add, *_ = make_nested_module()
        add.set_operand(0, const.result)
        with pytest.raises(
            VerifyException,
            match="func.func: operation arith.addf references a value defined outside "
                  "of an IsolatedFromAbove region",
        ):
            module.verify()
        with pytest.raises(VerifyException, match="func.func: operation arith.addf"):
            host.verify()

    def test_isolation_violated_at_depth_3_names_the_outermost_ancestor(self):
        module, const, _, _, device, kernel, neg, _ = make_nested_module()
        neg.set_operand(0, const.result)
        with pytest.raises(
            VerifyException,
            match="gpu.module: operation arith.negf references a value defined outside "
                  "of an IsolatedFromAbove region",
        ):
            module.verify()
        # Verified on its own, the kernel is the outermost ancestor in sight.
        with pytest.raises(VerifyException, match="gpu.func: operation arith.negf"):
            kernel.verify()

    def test_use_before_definition_is_rejected(self):
        """What the parser refuses on reload ("use of undefined value") the
        verifier refuses before the module is ever printed."""
        module, _, host, add, *_ = make_nested_module()
        late = arith.ConstantOp.from_float(3.0)
        host.entry_block.insert_op_after(late, add)
        add.set_operand(1, late.result)
        for root in (module, host):
            with pytest.raises(
                VerifyException,
                match="arith.addf: operand 1 is used before its definition",
            ):
                root.verify()
        with pytest.raises(ParseError, match="use of undefined value"):
            parse_module(print_module(module))

    def test_module_level_use_before_definition(self):
        a = arith.ConstantOp.from_float(1.0)
        b = arith.ConstantOp.from_float(2.0)
        with pytest.raises(VerifyException, match="arith.addf: operand 0 is used before"):
            ModuleOp([arith.AddfOp(a.result, b.result), a, b]).verify()

    def test_value_defined_outside_the_verified_subtree_stays_legal(self):
        const = arith.ConstantOp.from_float(1.0)
        loop = scf.ForOp(*(arith.ConstantOp.from_int(v, index).result
                           for v in (0, 4, 1)))
        body = loop.regions[0].block
        body.add_op(arith.NegfOp(const.result))
        body.add_op(scf.YieldOp([]))
        loop.verify()  # const and the bounds are not under ``loop``


class TestBuilder:
    def test_insertion_points(self):
        block = Block()
        builder = Builder.at_end(block)
        first = builder.insert(arith.ConstantOp.from_int(1, index))
        builder.set_insertion_point_before(first)
        zero = builder.insert(arith.ConstantOp.from_int(0, index))
        assert block.ops[0] is zero

    def test_guarded_restores_position(self):
        block_a = Block()
        block_b = Block()
        builder = Builder.at_end(block_a)
        with builder.guarded():
            builder.set_insertion_point_to_end(block_b)
            builder.insert(arith.ConstantOp.from_int(1, index))
        builder.insert(arith.ConstantOp.from_int(2, index))
        assert len(block_a.ops) == 1 and len(block_b.ops) == 1

    def test_builder_without_point_raises(self):
        with pytest.raises(IRError):
            Builder(None).insert(arith.ConstantOp.from_int(1, index))


class TestScfStructure:
    def test_for_loop_structure(self):
        b = Builder.at_end(Block())
        lb = b.insert(arith.ConstantOp.from_int(0, index))
        ub = b.insert(arith.ConstantOp.from_int(10, index))
        st = b.insert(arith.ConstantOp.from_int(1, index))
        loop = scf.ForOp(lb.result, ub.result, st.result)
        assert loop.induction_variable.type == index
        loop.body.block.add_op(scf.YieldOp([]))
        loop.verify()

    def test_parallel_rank(self):
        b = Builder.at_end(Block())
        c0 = b.insert(arith.ConstantOp.from_int(0, index)).result
        c4 = b.insert(arith.ConstantOp.from_int(4, index)).result
        c1 = b.insert(arith.ConstantOp.from_int(1, index)).result
        par = scf.ParallelOp([c0, c0], [c4, c4], [c1, c1])
        assert par.rank == 2
        assert len(par.induction_variables) == 2
        par.body.block.add_op(scf.YieldOp([]))
        par.verify()
