"""Chaos mode: generated kernels under seeded fault plans.

PR 6's discipline was *inject a miscompile deterministically, demand the
farm catches it*.  Chaos mode applies the same discipline to runtime
faults: each fuzz seed first runs **fault-free** to establish a baseline,
then re-runs under a :class:`repro.resilience.FaultPlan` drawn from the
same seed, and the recovered outputs must be **bitwise identical** to the
baseline.  Three fault scenarios per case, matched to the three injectable
runtime layers:

* ``dmp-chaos`` (distributed-style specs): a multi-rank run with
  dropped/delayed/duplicated/corrupted halo messages plus one rank crash
  mid-run, recovered by the retrying communicator and checkpoint/restart;
* ``gpu-chaos``: a gpu run whose :class:`SimulatedGPU` fails chosen device
  allocations, recovered by staging the buffers in host memory;
* ``compile-chaos``: a throwaway session whose compile hook fails the first
  compile transiently, recovered by the session's single retry.

Every injected fault and recovery action lands in the merged
:class:`repro.resilience.RecoveryReport` of the farm's
:class:`repro.fuzz.Report`; a chaos run is clean only when there are **0
divergences and 0 unrecovered faults**.  :class:`ChaosRunner` is a scenario
of :class:`repro.fuzz.Farm`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..api.session import Session
from ..resilience import (
    AllocFault,
    CompileFault,
    FaultInjector,
    FaultPlan,
    RankCrash,
    ResilienceOptions,
)
from ..runtime.gpu_runtime import SimulatedGPU
from .generator import KernelSpec
from .runner import _DMP_ITERATIONS, CaseResult, DifferentialRunner, Divergence

#: Process grid for the distributed chaos scenario (same as the farm's
#: widest dmp cell).
_CHAOS_GRID = (2, 2)


class ChaosRunner:
    """Runs one spec fault-free, then under a seeded plan, compares bitwise."""

    def __init__(self, session: Optional[Session] = None):
        self.runner = DifferentialRunner(session=session)

    @property
    def session(self) -> Session:
        return self.runner.session

    # -- scenarios -----------------------------------------------------------

    def _dmp_plan(self, spec: KernelSpec):
        """The fluent distributed plan the dmp scenario runs (compiled on the
        shared session, so baseline and faulted runs share artifacts)."""
        compiled = self.session.compile(spec.render()).lower(
            "dmp", grid=_CHAOS_GRID, execution_mode="vectorize")
        return compiled.distribute(
            source_builder=lambda shape: spec.render(shape=shape),
            entry=spec.entry,
        )

    def _run_dmp_chaos(self, spec: KernelSpec, result: CaseResult) -> None:
        plan = self._dmp_plan(spec)
        arrays, _ = self.runner.inputs_for(spec)
        seed_field = arrays[spec.arrays[0]]
        baseline = plan.run(seed_field, iterations=_DMP_ITERATIONS)
        fault_plan = FaultPlan(
            seed=spec.seed,
            comm_faults=FaultPlan.generate(spec.seed, comm_faults=4).comm_faults,
            rank_crashes=(RankCrash(rank=spec.seed % 4,
                                    iteration=spec.seed % _DMP_ITERATIONS),),
        )
        faulted = plan.run(
            seed_field, iterations=_DMP_ITERATIONS,
            resilience=ResilienceOptions(plan=fault_plan))
        result.recovery.merge(faulted.recovery)
        result.configs_run += 1
        self._compare(spec, "dmp-chaos", result,
                      {spec.arrays[0]: baseline.field},
                      {spec.arrays[0]: faulted.field})

    def _run_gpu_chaos(self, spec: KernelSpec, result: CaseResult) -> None:
        baseline, _ = self.runner._run_plain(spec, "gpu", "vectorize", 1, {})
        report = result.recovery
        injector = FaultInjector(
            FaultPlan(seed=spec.seed,
                      alloc_faults=(AllocFault(index=spec.seed % 2),)),
            report)
        gpu = SimulatedGPU(alloc_hook=injector.on_device_alloc)
        work, interp = self.runner._run_plain(spec, "gpu", "vectorize", 1, {},
                                              gpu=gpu)
        report.add_counters(gpu.degradation)
        report.add_counters(
            {"scalar_fallbacks": int(interp.stats.get("gpu_launch_fallbacks",
                                                      0))})
        result.configs_run += 1
        self._compare(spec, "gpu-chaos", result, baseline, work)

    def _run_compile_chaos(self, spec: KernelSpec,
                           result: CaseResult) -> None:
        baseline, _ = self.runner._run_plain(spec, "cpu", "vectorize", 1, {})
        report = result.recovery
        injector = FaultInjector(
            FaultPlan(seed=spec.seed,
                      compile_faults=(CompileFault(index=0, count=1),)),
            report)
        # A throwaway session: its compiles must actually run (no warm cache)
        # and its quarantine records must not leak into the shared session.
        scratch = Session(registry=self.session.registry)
        scratch.compile_hook = injector.on_compile
        work, _ = self.runner._run_plain(spec, "cpu", "vectorize", 1, {},
                                         session=scratch)
        report.add_counters(scratch.resilience_stats)
        result.configs_run += 1
        self._compare(spec, "compile-chaos", result, baseline, work)

    # -- comparison ----------------------------------------------------------

    @staticmethod
    def _diverged(spec: KernelSpec, label: str, result: CaseResult,
                  kind: str, detail: str, **found) -> None:
        result.recovery.unrecovered += 1
        result.divergences.append(Divergence(
            seed=spec.seed, config_label=label, backend="chaos", kind=kind,
            detail=detail, spec=spec,
            replay_flags=f"--chaos --seeds 1 --start-seed {spec.seed}",
            **found))

    def _compare(self, spec: KernelSpec, label: str,
                 result: CaseResult, expected, actual) -> None:
        differing, max_diff = self.runner.compare(expected, actual)
        if differing:
            self._diverged(
                spec, label, result, "bitwise",
                "recovered outputs differ from the fault-free run",
                arrays=differing, max_abs_diff=max_diff)

    # -- the per-case driver -------------------------------------------------

    def run_case(self, spec: KernelSpec) -> CaseResult:
        result = CaseResult(spec=spec)
        scenarios: List[Callable[[KernelSpec, CaseResult], None]] = [
            self._run_gpu_chaos,
            self._run_compile_chaos,
        ]
        if spec.style == "distributed":
            scenarios.insert(0, self._run_dmp_chaos)
        for scenario in scenarios:
            try:
                scenario(spec, result)
            except Exception as err:  # noqa: BLE001 — an unhandled fault IS a finding
                result.configs_run += 1
                self._diverged(
                    spec, scenario.__name__.replace("_run_", ""), result,
                    "error", f"{type(err).__name__}: {err}")
        return result


__all__ = ["ChaosRunner"]
