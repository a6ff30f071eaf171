"""Discovery accepts both spellings of the same FIR.

``fir_gen`` builds a constant once per function and a scalar-pure subscript
chain once per block; Flang (and this repo until PR 22) re-emits both at
every use.  ``unshare`` turns the first spelling into the second, so the
paper's claim — discovery recognises the op *kinds* Flang produces — stays
pinned on Flang's multiplicity without a second code path in ``src/``.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, fir, stencil
from repro.frontend import compile_to_fir
from repro.fuzz import DifferentialRunner
from repro.fuzz.generator import generate_spec
from repro.ir import default_context
from repro.runtime import Interpreter
from repro.transforms import StencilDiscoveryPass

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
    discovery.apply(default_context(), module)
    module.verify()
    applies = [op for op in module.walk() if isinstance(op, stencil.ApplyOp)]
    return discovery.discovered, [
        (op.lb, op.ub, Counter(a.offset for a in op.walk() if isinstance(a, stencil.AccessOp)))
        for op in applies]


def assert_same_discovery_and_answers(source, entry, make_args):
    shared, unshared = compile_to_fir(source), unshare(compile_to_fir(source))
    multi_use = [op for op in unshared.walk()
                 if isinstance(op, (arith.ConstantOp, fir.ConvertOp, arith.SubiOp))
                 and len(op.results[0].uses) > 1]
    assert not multi_use
    assert sum(1 for _ in unshared.walk()) > sum(1 for _ in shared.walk())
    found = discovered(shared)
    assert found == discovered(unshared) and sum(found[0].values()) >= 1
    results = []
    for module in (shared, unshared):
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


def test_generated_kernels_shared_and_unshared(fuzz_seeds):
    runner = DifferentialRunner()
    for seed in range(fuzz_seeds):
        spec = generate_spec(seed)
        arrays, scalar = runner.inputs_for(spec)

        def make_args():
            args = [arrays[name].copy(order="F") for name in spec.arrays]
            return args + [scalar] if spec.has_scalar else args

        assert_same_discovery_and_answers(spec.render(), spec.entry, make_args)
