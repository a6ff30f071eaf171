"""The minimizer against a deliberately injected miscompile.

A test-only fault hook perturbs the gpu-scf/vectorize output by 1e-9 — a
synthetic miscompile the farm must catch, delta-debug to a kernel no
larger than a stated bound, and reproduce deterministically from its seed.
This is the flow that produced the committed ``fuzz/corpus/`` seed entries.
"""

import pytest

from repro.fuzz import (
    DEFAULT_CONFIG,
    DifferentialRunner,
    generate_spec,
    minimize,
)

FAULT_LABEL = "gpu-scf/vectorize"
#: The minimizer must get an injected everywhere-divergence down to a
#: single statement of structural weight <= 4 on a minimal domain.
SIZE_BOUND = 4


def inject_fault(spec, label, outputs):
    if label == FAULT_LABEL:
        outputs[spec.arrays[0]].flat[0] += 1e-9


@pytest.fixture
def faulty_runner():
    return DifferentialRunner(fault_hook=inject_fault)


def test_injected_fault_is_caught(faulty_runner):
    spec = generate_spec(11, DEFAULT_CONFIG)
    result = faulty_runner.run_case(spec)
    labels = {d.config_label for d in result.divergences}
    assert FAULT_LABEL in labels
    divergence = next(d for d in result.divergences
                      if d.config_label == FAULT_LABEL)
    assert divergence.kind == "bitwise"
    assert "--replay-seed 11" in divergence.repro_command


@pytest.mark.parametrize("seed", (11, 17))
def test_fault_minimizes_below_bound_deterministically(faulty_runner, seed):
    spec = generate_spec(seed, DEFAULT_CONFIG)
    predicate = lambda s: faulty_runner.reproduces(s, FAULT_LABEL)
    assert predicate(spec), "the injected fault must reproduce pre-minimization"
    first = minimize(spec, predicate)
    second = minimize(spec, predicate)
    assert first.minimized == second.minimized  # deterministic
    assert first.minimized.size() <= SIZE_BOUND
    assert len(first.minimized.statements) == 1
    assert first.minimized.extents == tuple(
        first.minimized.min_extent for _ in first.minimized.extents)
    # The minimal kernel still reproduces and still renders/compiles.
    assert predicate(first.minimized)
    assert "subroutine" in first.minimized.render()


def test_minimizer_is_noop_without_divergence():
    runner = DifferentialRunner()  # no fault hook
    spec = generate_spec(11, DEFAULT_CONFIG)
    result = minimize(spec, lambda s: runner.reproduces(s, FAULT_LABEL))
    assert result.minimized == spec
    assert result.steps == 0


def test_minimizer_keeps_distributed_specs_partitionable(faulty_runner):
    for seed in range(40):
        spec = generate_spec(seed, DEFAULT_CONFIG)
        if spec.style != "distributed":
            continue
        predicate = lambda s: faulty_runner.reproduces(s, FAULT_LABEL)
        minimized = minimize(spec, predicate).minimized
        assert minimized.rank >= 2
        return
    raise AssertionError("no distributed spec in the first 40 seeds")
