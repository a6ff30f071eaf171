"""Discovery accepts both spellings of the same FIR.

``fir_gen`` builds a constant once per function and a scalar-pure subscript
chain once per block; Flang (and this repo until PR 22) re-emits both at
every use.  ``unshare`` turns the first spelling into the second, so the
paper's claim — discovery recognises the op *kinds* Flang produces — stays
pinned on Flang's multiplicity without a second code path in ``src/``.
"""

from collections import Counter

import numpy as np

from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, fir, stencil
from repro.frontend import compile_to_fir
from repro.fuzz import DifferentialRunner
from repro.fuzz.generator import Access, expr_paths, generate_spec
from repro.runtime import Interpreter
from repro.transforms import ConvertStencilToSCFPass, StencilDiscoveryPass

N = 8


def unshare(module):
    """Give every user of a shared constant / scalar load / convert / integer
    add or subtract its own clone, emitted directly before that user."""
    def shareable(op):
        if isinstance(op, fir.LoadOp):
            return not isinstance(op.memref.op, fir.CoordinateOfOp)
        return isinstance(op, (arith.ConstantOp, fir.ConvertOp, arith.AddiOp, arith.SubiOp))

    # Users before definers: a clone adds a use to each of its operands, whose
    # definers are still to come.
    for op in reversed(list(module.walk())):
        if not shareable(op):
            continue
        for use in list(op.results[0].uses)[1:]:
            clone = op.clone()
            use.operation.parent_block().insert_op_before(clone, use.operation)
            use.operation.set_operand(use.index, clone.results[0])
    module.verify()
    return module


def discovered(module):
    """Discovery's findings: per apply its bounds and access-offset multiset."""
    discovery = StencilDiscoveryPass()
    discovery.apply(module)
    module.verify()
    applies = [op for op in module.walk() if isinstance(op, stencil.ApplyOp)]
    return discovery.discovered, [
        (op.lb, op.ub, Counter(a.offset for a in op.walk() if isinstance(a, stencil.AccessOp)))
        for op in applies]


def assert_same_discovery_and_answers(source, entry, make_args, stencils=True):
    """``stencils``: whether discovery must find at least one, or none."""
    shared, unshared = compile_to_fir(source), unshare(compile_to_fir(source))
    multi_use = [op for op in unshared.walk()
                 if isinstance(op, (arith.ConstantOp, fir.ConvertOp, arith.SubiOp))
                 and len(op.results[0].uses) > 1]
    assert not multi_use
    assert sum(1 for _ in unshared.walk()) > sum(1 for _ in shared.walk())
    found = discovered(shared)
    assert found == discovered(unshared)
    assert (sum(found[0].values()) >= 1) == stencils
    results = []
    for module in (shared, unshared):
        ConvertStencilToSCFPass(target="cpu").apply(module)
        module.verify()
        args = make_args()
        with np.errstate(over="ignore", invalid="ignore"):
            Interpreter(module, execution_mode="vectorize").call(entry, *args)
        results.append(args)
    for ours, flangs in zip(*results):
        assert np.asarray(ours).tobytes() == np.asarray(flangs).tobytes()


def test_pw_advection_shared_and_unshared():
    assert_same_discovery_and_answers(
        pw_advection.generate_source(N), "pw_advection",
        lambda: [f.copy(order="F") for f in pw_advection.initial_fields(N)])


def test_gauss_seidel_shared_and_unshared():
    assert_same_discovery_and_answers(
        gauss_seidel.generate_source(N, niters=3), "gauss_seidel",
        lambda: [gauss_seidel.initial_condition(N).copy(order="F")])


def test_unshared_pw_is_the_fir_this_repo_used_to_build():
    counts = Counter(op.name for op in unshare(compile_to_fir(pw_advection.generate_source(N))).walk())
    assert sum(counts.values()) == 1088 and counts["arith.constant"] == 267


def lifted_pair_refused(spec):
    """Whether discovery's lifted-pair rule (``_sweeps_keep_order``) refuses
    the spec's nest: a later statement touches an element an earlier one
    touches, one of them writing it, at a distance lexicographically > 0 in
    loop order (outermost first).  A statement's reads of the array it
    writes are outside the rule (the Jacobi policy)."""
    def accesses(statement):
        reads = [(node.array, node.offsets, False)
                 for _, node in expr_paths(statement.expr)
                 if isinstance(node, Access) and node.array != statement.target]
        return [(statement.target, (0,) * spec.rank, True)] + reads

    for position, first in enumerate(spec.statements):
        for second in spec.statements[position + 1:]:
            for array, before, writes in accesses(first):
                for other, after, other_writes in accesses(second):
                    distance = [b - a for a, b in zip(before, after)][::-1]
                    if array == other and (writes or other_writes) \
                            and distance > [0] * spec.rank:
                        return True
    return False


def test_lifted_pair_rule_is_read_off_the_spec():
    """Seed 26, ``a(i) = tanh(tanh(a(i-1))) - c; b(i) = a(i+1)``: the loop
    reads the old ``a(i+1)``, a lifted sweep the new one."""
    assert lifted_pair_refused(generate_spec(26))
    assert not lifted_pair_refused(generate_spec(25))


def test_generated_kernels_shared_and_unshared(fuzz_seeds):
    runner = DifferentialRunner()
    for seed in range(fuzz_seeds):
        spec = generate_spec(seed)
        arrays, scalar = runner.inputs_for(spec)

        def make_args():
            args = [arrays[name].copy(order="F") for name in spec.arrays]
            return args + [scalar] if spec.has_scalar else args

        assert_same_discovery_and_answers(spec.render(), spec.entry, make_args,
                                          stencils=not lifted_pair_refused(spec))
