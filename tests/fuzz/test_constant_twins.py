"""Constant twins: generated kernels that differ only in their float literals
share compiled kernels and keep their own answers.

Kernels take float literals as parameters, bound per op
(``repro.runtime.kernel_compiler``).  A spec's *twin* is the same tree with
every ``Const`` leaf re-drawn from the seed, so the two are one kernel
structure.  Spec, twin and spec again run in one process, each through a
session of its own: every run must equal its own interpret oracle bitwise,
and the twin's first run must translate no kernel.  A key that kept a value,
or a binding that kept another source's values, fails here.

Seed count comes from ``--fuzz-seeds`` (default 10).
"""

import random

import numpy as np
import pytest

from repro.api import Session
from repro.fuzz import DifferentialRunner, generate_spec
from repro.fuzz.generator import Const, Statement, expr_paths, expr_replace

RUNNER = DifferentialRunner()


def twin(spec):
    """``spec`` with each distinct ``Const`` value re-drawn from the seed.
    Equal values stay equal and none becomes another or the 0.5 the
    division clamp renders: the frontend shares equal constants, so the
    twin's IR has the spec's structure."""
    rng = random.Random(spec.seed)
    values = sorted({node.value for statement in spec.statements
                     for _, node in expr_paths(statement.expr)
                     if isinstance(node, Const)})
    taken = set(values) | {0.5}
    drawn = {}
    for value in values:
        new = value
        while new in taken:
            new = round(rng.uniform(0.5, 4.0), 3)
        taken.add(new)
        drawn[value] = new

    def redraw(expr):
        for path, node in list(expr_paths(expr)):
            if isinstance(node, Const):
                expr = expr_replace(expr, path, Const(drawn[node.value]))
        return expr

    return spec.replace(statements=tuple(
        Statement(s.target, redraw(s.expr)) for s in spec.statements))


def run(spec, mode, options):
    """One call of ``spec`` on the cpu backend, on a fresh session."""
    arrays, scalar = RUNNER.inputs_for(spec)
    args = [arrays[name] for name in spec.arrays] + [scalar] * spec.has_scalar
    compiled = Session().compile(spec.render()).lower(
        "cpu", execution_mode=mode, **options)
    # As in the differential runner: a saturating exp is data, not a finding.
    with np.errstate(over="ignore", invalid="ignore"):
        interp = compiled.run(spec.entry, *args)
    return arrays, interp


@pytest.mark.parametrize("options", [{}, {"lower_to_scf": True}],
                         ids=["cpu", "cpu-scf"])
def test_spec_twin_spec_share_kernels_and_match_their_oracles(
        fuzz_seeds, options, empty_kernel_cache):
    twins = shared = 0
    for seed in range(fuzz_seeds):
        spec = generate_spec(seed)
        other = twin(spec)
        oracles = {case: run(case, "interpret", options)[0] for case in (spec, other)}
        for position, case in enumerate((spec, other, spec)):
            arrays, interp = run(case, "vectorize", options)
            for name, want in oracles[case].items():
                assert arrays[name].tobytes() == want.tobytes(), (seed, position, name)
            assert interp.kernels.stats["reasons"] == {}, seed
            if position == 1:
                assert interp.kernels.stats["compiled"] == 0, (seed, other.render())
                twins += other != spec
                shared += other != spec and interp.stats["vectorized_sweeps"] > 0
    # Most specs have a literal to re-draw and a sweep that runs a kernel.
    assert shared >= twins / 2 > 0
