"""Chaos mode: generated kernels under seeded fault plans.

The fuzz farm's discipline was *inject a miscompile deterministically,
demand the farm catches it*.  Chaos mode applies the same discipline to
runtime faults: each fuzz seed first runs **fault-free** to establish a
baseline, then re-runs under faults drawn from the same seed, and the
recovered outputs must be **bitwise identical** to the baseline.  Two fault
scenarios per case:

* ``dmp-chaos`` (distributed-style specs): a multi-rank run under a
  :class:`repro.resilience.FaultPlan` of dropped/delayed/duplicated/corrupted
  halo messages plus one rank crash mid-run, recovered by the retrying
  communicator and checkpoint/restart;
* ``gpu-chaos``: a gpu run on a :class:`SimulatedGPU` with room for no
  field on even seeds and for one on odd seeds, so real pool misses are
  recovered by staging the buffers in host memory.

Every injected fault and recovery action lands in the merged
:class:`repro.resilience.RecoveryReport` of the farm's
:class:`repro.fuzz.Report`; a chaos run is clean only when there are **0
divergences and 0 unrecovered faults**.  :class:`ChaosRunner` is a scenario
of :class:`repro.fuzz.Farm`.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..api.session import Session
from ..resilience import FaultPlan, RankCrash, ResilienceOptions
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
        arrays, _ = self.runner.inputs_for(spec)
        field_bytes = arrays[spec.arrays[0]].nbytes
        gpu = SimulatedGPU(memory_bytes=(spec.seed % 2) * field_bytes)
        work, interp = self.runner._run_plain(spec, "gpu", "vectorize", 1, {},
                                              gpu=gpu)
        result.recovery.add_counters(gpu.degradation)
        result.recovery.add_counters(
            {"scalar_fallbacks": int(interp.stats.get("gpu_launch_fallbacks",
                                                      0))})
        result.configs_run += 1
        self._compare(spec, "gpu-chaos", result, baseline, work)

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
            self._run_gpu_chaos]
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
