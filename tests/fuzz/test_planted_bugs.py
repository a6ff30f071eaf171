"""Three bugs planted where this repository's copy-avoiding snapshot, its
flat kernel body and its kernel codegen live, each caught by the farm and
delta-debugged to a one-statement kernel.

* ``convert-stencil-to-scf`` lowers the ``stencil.load`` of a field the
  function only reads to a ``memref.snapshot`` that copies when, at run time,
  the field shares memory with a written one.  Planted: every field counts as
  read-only and no writer is named, so the snapshot of a *stored* field is
  elided too.
* The flat kernel body reads each access as the span from the box's first to
  its last lattice point.  Planted: the span ends one lane early.
* Kernel codegen that raises anything but ``KernelUnsupported`` is absorbed
  by the runtime as a scalar fallback, whose answer is right.  Planted: every
  rendered kernel body ends in a line that is not Python.

The minimized kernels of the first two are the
``seed23-cpu-scf-aliased-vectorize`` and ``seed10-cpu-scf-vectorize`` entries
of ``fuzz/corpus/``, found when cpu still had a stencil-level lowering beside
the scf one (its ``cpu-scf`` cells are the ``cpu`` cells now).  The oracle
copies every snapshot, so neither the elision nor a swap can hide a plant
from it.
"""

import pytest

from repro.dialects import stencil
from repro.fuzz import DifferentialRunner, Farm, default_matrix, generate_spec, minimize
from repro.runtime import kernel_compiler
from repro.runtime.kernel_compiler import CompiledKernel, _BodyTranslator

SEEDS = 12


def plant_elided_snapshots(monkeypatch):
    monkeypatch.setattr(stencil.ExternalLoadOp, "read_only",
                        property(lambda self: True))


def plant_short_span(monkeypatch):
    real = CompiledKernel.flat_plan

    def short(self, ext, lb, ub):
        plan = real(self, ext, lb, ub)
        return plan if isinstance(plan, str) else (
            plan[0], plan[1], plan[2] - 1, plan[3])

    monkeypatch.setattr(CompiledKernel, "flat_plan", short)


def plant_codegen_syntax_error(monkeypatch):
    real = _BodyTranslator.render

    def broken(self, flat=False):
        lines, allocations = real(self, flat)
        return lines + ["return )"], allocations

    monkeypatch.setattr(_BodyTranslator, "render", broken)
    # Kernels built before the plant are shared process-wide.
    monkeypatch.setattr(kernel_compiler, "_SHARED_CACHE", {})


def test_aliased_cells_exist_exactly_for_specs_with_an_alias_pair():
    runner = DifferentialRunner()
    with_pair = 0
    for seed in range(60):
        spec = generate_spec(seed)
        aliased = [cfg for cfg in default_matrix(spec) if cfg.aliased]
        assert bool(aliased) == (spec.alias_pair is not None)
        if not aliased:
            continue
        with_pair += 1
        read_only, written = spec.alias_pair
        assert read_only not in spec.written_arrays() and read_only != written
        # In-place FIR and two device copies of one host array both
        # legitimately see something else than the snapshot semantics.
        assert {cfg.backend for cfg in aliased} == {"cpu", "openmp", "gpu"}
        assert all(cfg.option_dict()["data_strategy"] == "host_register"
                   for cfg in aliased if cfg.backend == "gpu")
        outputs, _ = runner.run_config(spec, aliased[0])
        assert outputs[read_only] is outputs[written]
        assert runner.run_oracle(spec, aliased=True)[written].tobytes() == \
            outputs[written].tobytes()
    assert with_pair >= 5


@pytest.mark.parametrize("plant, backends, label, kind", [
    # Without the gpu backend, whose copy-back reads the same predicate.
    # The oracle copies every snapshot, so it does not run the plant.
    (plant_elided_snapshots, ("cpu", "openmp"), "cpu-aliased/vectorize",
     "bitwise"),
    (plant_short_span, None, "cpu/vectorize", "error"),
], ids=["snapshot-of-a-stored-field-elided", "flat-span-one-lane-short"])
def test_planted_bug_is_caught_and_minimized(monkeypatch, plant, backends,
                                             label, kind):
    clean = Farm(DifferentialRunner(backends=backends), count=SEEDS).run()
    assert clean.ok
    with monkeypatch.context() as planted:
        plant(planted)
        runner = DifferentialRunner(backends=backends)
        report = Farm(runner, count=SEEDS).run()
        found = [d for d in report.divergences if d.config_label == label]
        assert found and {d.kind for d in found} == {kind}
        # Neither plant hides on the other lowered paths either.
        assert {d.config_label for d in report.divergences} >= {
            "cpu/vectorize", "openmp-static-t2/vectorize", label}
        divergence = found[0]
        minimized = minimize(
            divergence.spec, lambda s: runner.reproduces(s, label)).minimized
        assert minimized.size() <= 5 and len(minimized.statements) == 1
        assert runner.reproduces(minimized, label)
    assert not DifferentialRunner(backends=backends).reproduces(minimized, label)


def test_planted_codegen_crash_is_caught_and_minimized(monkeypatch):
    """The run degrades to a bitwise-right scalar sweep, and the farm still
    reports the crash it degraded around."""
    label = "cpu/vectorize"
    assert Farm(DifferentialRunner(backends=("cpu",)), count=SEEDS).run().ok
    with monkeypatch.context() as planted:
        plant_codegen_syntax_error(planted)
        runner = DifferentialRunner(backends=("cpu",))
        report = Farm(runner, count=SEEDS).run()
        found = [d for d in report.divergences if d.config_label == label]
        assert found and {d.kind for d in report.divergences} == {"codegen"}
        assert all(d.detail.startswith("SyntaxError") for d in found)
        minimized = minimize(
            found[0].spec, lambda s: runner.reproduces(s, label)).minimized
        assert minimized.size() <= 3 and len(minimized.statements) == 1
        assert runner.reproduces(minimized, label)
    assert not DifferentialRunner(backends=("cpu",)).reproduces(minimized, label)
