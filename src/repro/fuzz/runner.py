"""The differential fuzz runner: every backend × execution mode vs the oracle.

For each :class:`repro.fuzz.KernelSpec` the runner compiles the rendered
source through the fluent ``Program`` API of one shared :class:`repro.api.Session`
(the whole farm deliberately runs on a single session so the artifact cache
is exercised under churn — runtime-mode derivations of one case must hit,
distinct cases must miss) and executes a configuration matrix:

* **oracle** — the cpu backend in ``interpret`` mode: pure op-by-op scalar
  execution, the reference semantics every other path is judged against;
* **cpu / openmp / gpu** — vectorized and crosscheck modes, cpu at the
  stencil level and lowered, thread counts — each compared **bitwise**
  (``ndarray.tobytes()``) against the oracle's output arrays;
* **flang-only** — plain-FIR in-place execution, compared only for specs
  where snapshot and in-place semantics provably coincide
  (:attr:`KernelSpec.flang_comparable`);
* **aliased** — for specs with a read-only and a written array
  (:attr:`KernelSpec.alias_pair`), the lowered and unlowered stencil paths
  once more with one ndarray passed for both, against the oracle run the
  same way (flang-only excluded: in-place semantics legitimately differ;
  gpu ``optimised`` too: the device copies of one host array are two buffers);
* **dmp** — distributed-style specs run through ``distribute(...)`` over
  1/2/4-rank process grids with real halo exchanges.  Rank-padded arrays
  carry ghost planes the plain-cpu loop does not have, so the dmp island
  has its own oracle: the 1-rank *interpret* distributed run, against which
  every multi-rank/vectorized plan must agree bitwise.

Any bitwise mismatch, crosscheck failure, backend crash, or kernel codegen
crash the runtime absorbed as a scalar fallback is recorded as a
:class:`Divergence` carrying the spec and a replay command.

The runner is one *scenario* of the :class:`Farm`, the single seeds →
time-budget → ``generate_spec`` → ``run_case`` → merge loop of the package;
:class:`repro.fuzz.chaos.ChaosRunner` is the other.  A scenario
is anything with a ``session`` and a ``run_case(spec) -> CaseResult``; the
farm merges every case into one :class:`Report`, which
``repro.harness.fuzz_summary_table`` / ``recovery_report_table`` render.

A **test-only fault hook** may be installed on the runner
(``fault_hook(spec, config_label, outputs)``) to perturb a configuration's
outputs after execution — the injected-miscompile path used to prove the
farm catches, minimizes and persists real divergences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..api.session import Session
from ..resilience import RecoveryReport
from ..runtime.interpreter import Interpreter, InterpreterError
from .generator import DEFAULT_CONFIG, GeneratorConfig, KernelSpec, generate_spec

#: Interpreter stat counters summed into the per-backend fallback column.
_FALLBACK_STATS = ("vectorize_fallbacks", "parallel_fallbacks",
                   "gpu_launch_fallbacks")

#: Test-only output perturbation: (spec, config label, outputs) -> None.
FaultHook = Callable[[KernelSpec, str, Dict[str, np.ndarray]], None]


@dataclass(frozen=True)
class BackendConfig:
    """One cell of the differential matrix.

    ``options`` are compile-time backend options (frozen into the session
    cache key); ``threads`` and ``execution_mode`` are runtime-only.  dmp
    cells set ``grid`` and run through the distributed executor with
    ``iterations`` entry calls per rank.  ``aliased`` cells pass one ndarray
    for both arrays of the spec's ``alias_pair``.
    """

    label: str
    backend: str
    execution_mode: str
    options: Tuple[Tuple[str, object], ...] = ()
    threads: int = 1
    grid: Optional[Tuple[int, ...]] = None
    iterations: int = 1
    aliased: bool = False

    def option_dict(self) -> Dict[str, object]:
        return dict(self.options)


def _cfg(label: str, backend: str, mode: str, threads: int = 1,
         grid: Optional[Tuple[int, ...]] = None, iterations: int = 1,
         aliased: bool = False, **options) -> BackendConfig:
    return BackendConfig(label=label, backend=backend, execution_mode=mode,
                         options=tuple(sorted(options.items())),
                         threads=threads, grid=grid, iterations=iterations,
                         aliased=aliased)


#: dmp entry calls per rank — >1 so halo exchanges between snapshots run.
_DMP_ITERATIONS = 2


def default_matrix(spec: KernelSpec,
                   backends: Optional[Sequence[str]] = None) -> List[BackendConfig]:
    """The configuration matrix one spec runs through (oracle excluded).

    ``backends`` optionally restricts the matrix to a subset of backend
    names (the CLI's ``--backends``).
    """
    configs = [
        _cfg("cpu/vectorize", "cpu", "vectorize"),
        _cfg("cpu/crosscheck", "cpu", "crosscheck"),
        _cfg("cpu-scf/vectorize", "cpu", "vectorize", lower_to_scf=True),
        _cfg("openmp-static-t2/vectorize", "openmp", "vectorize", threads=2),
        _cfg("openmp-t4/crosscheck", "openmp", "crosscheck", threads=4),
        _cfg("gpu-scf/vectorize", "gpu", "vectorize"),
    ]
    if spec.flang_comparable:
        configs.append(_cfg("flang-only/interpret", "flang-only", "interpret"))
    if spec.alias_pair is not None:
        configs.extend([
            _cfg("cpu-aliased/vectorize", "cpu", "vectorize", aliased=True),
            _cfg("cpu-scf-aliased/vectorize", "cpu", "vectorize", aliased=True,
                 lower_to_scf=True),
            _cfg("openmp-t2-aliased/crosscheck", "openmp", "crosscheck",
                 threads=2, aliased=True),
            _cfg("gpu-scf-host-aliased/vectorize", "gpu", "vectorize",
                 aliased=True, data_strategy="host_register"),
        ])
    if spec.style == "distributed":
        configs.extend([
            _cfg("dmp-1x1/vectorize", "dmp", "vectorize", grid=(1, 1),
                 iterations=_DMP_ITERATIONS),
            _cfg("dmp-2x1/vectorize", "dmp", "vectorize", grid=(2, 1),
                 iterations=_DMP_ITERATIONS),
            _cfg("dmp-2x2/vectorize", "dmp", "vectorize", grid=(2, 2),
                 iterations=_DMP_ITERATIONS),
        ])
    if backends is not None:
        allowed = set(backends)
        configs = [c for c in configs if c.backend in allowed]
    return configs


@dataclass
class Divergence:
    """One configuration disagreeing with its oracle (or crashing)."""

    seed: int
    config_label: str
    backend: str
    #: "bitwise" (outputs differ), "crosscheck" (the honesty mode raised),
    #: "error" (the backend crashed on a valid kernel), or "codegen" (kernel
    #: generation raised something other than KernelUnsupported and the
    #: sweep fell back to scalar execution).
    kind: str
    detail: str
    spec: KernelSpec
    arrays: Tuple[str, ...] = ()
    max_abs_diff: Optional[float] = None
    #: CLI flags that replay the finding; the differential matrix replay
    #: unless the scenario that found it says otherwise.
    replay_flags: str = ""

    @property
    def repro_command(self) -> str:
        flags = self.replay_flags or (
            f"--replay-seed {self.seed} --config '{self.config_label}'")
        return f"PYTHONPATH=src python -m repro.fuzz {flags}"

    def describe(self) -> str:
        extra = f" arrays={list(self.arrays)}" if self.arrays else ""
        diff = (f" max|diff|={self.max_abs_diff:.3e}"
                if self.max_abs_diff is not None else "")
        return (f"seed {self.seed} [{self.config_label}] {self.kind}:"
                f" {self.detail}{extra}{diff}\n  repro: {self.repro_command}")


def _backend_counters() -> Dict[str, int]:
    return {"runs": 0, "divergences": 0, "fallbacks": 0}


@dataclass
class CaseResult:
    """One seed's verdict under one scenario."""

    spec: KernelSpec
    divergences: List[Divergence] = field(default_factory=list)
    #: Matrix cells / fault scenarios executed.
    configs_run: int = 0
    #: Per-backend counters for this case: runs / divergences / fallbacks.
    per_backend: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Faults injected and recovery work done (chaos scenario).
    recovery: RecoveryReport = field(default_factory=RecoveryReport)

    @property
    def ok(self) -> bool:
        return not self.divergences and self.recovery.ok


@dataclass
class Report:
    """Aggregated farm results of any scenario, rendered by
    ``harness.fuzz_summary_table`` / ``harness.recovery_report_table``."""

    cases: int = 0
    configs_run: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    per_backend: Dict[str, Dict[str, int]] = field(default_factory=dict)
    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    seconds: float = 0.0
    budget_exhausted: bool = False
    seeds_skipped: int = 0
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergences and self.recovery.ok

    def merge_case(self, result: CaseResult) -> None:
        self.cases += 1
        self.configs_run += result.configs_run
        self.divergences.extend(result.divergences)
        for backend, counters in result.per_backend.items():
            into = self.per_backend.setdefault(backend, _backend_counters())
            for key, value in counters.items():
                into[key] += value
        self.recovery.merge(result.recovery)


class DifferentialRunner:
    """Runs one spec through the matrix and compares bitwise to the oracle."""

    def __init__(self, session: Optional[Session] = None,
                 backends: Optional[Sequence[str]] = None,
                 fault_hook: Optional[FaultHook] = None):
        self.session = session if session is not None else Session()
        self.backends = tuple(backends) if backends is not None else None
        self.fault_hook = fault_hook

    # -- inputs --------------------------------------------------------------

    def inputs_for(self, spec: KernelSpec) -> Tuple[Dict[str, np.ndarray], float]:
        """Deterministic inputs for a spec: positive Fortran-ordered arrays
        (one rng stream per array) and the scalar parameter."""
        arrays = {}
        for index, name in enumerate(spec.arrays):
            rng = np.random.default_rng([spec.seed, index])
            arrays[name] = np.asfortranarray(
                rng.uniform(0.5, 2.0, size=spec.extents))
        scalar = float(np.random.default_rng([spec.seed, 997]).uniform(0.5, 2.0))
        return arrays, scalar

    def _call_args(self, spec: KernelSpec,
                   arrays: Dict[str, np.ndarray], scalar: float) -> List[object]:
        args: List[object] = [arrays[name] for name in spec.arrays]
        if spec.has_scalar:
            args.append(scalar)
        return args

    # -- execution -----------------------------------------------------------

    def _run_plain(self, spec: KernelSpec, backend: str, mode: str,
                   threads: int, options: Dict[str, object], calls: int = 1,
                   aliased: bool = False, session: Optional[Session] = None,
                   gpu=None) -> Tuple[Dict[str, np.ndarray], Interpreter]:
        """Compile ``spec`` on ``session`` (the runner's own by default), run
        it on fresh inputs ``calls`` times, on ``gpu`` when one is given;
        returns the outputs and the interpreter that ran them."""
        session = self.session if session is None else session
        compiled = session.compile(spec.render()).lower(
            backend, execution_mode=mode, threads=threads, **options)
        arrays, scalar = self.inputs_for(spec)
        work = {name: arr.copy(order="F") for name, arr in arrays.items()}
        if aliased:
            read_only, written = spec.alias_pair
            work[written] = work[read_only]
        interp = compiled.interpreter(gpu=gpu)
        # Repeated exp under a sweep loop can saturate to inf/NaN; that is
        # deterministic and bitwise-compared like any other value, so the
        # overflow warnings are noise, not findings.
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(calls):
                interp.call(spec.entry, *self._call_args(spec, work, scalar))
        return work, interp

    @staticmethod
    def _run_stats(interp: Interpreter) -> Dict[str, object]:
        fallbacks = sum(int(interp.stats.get(key, 0))
                        for key in _FALLBACK_STATS)
        # An op that cannot be vectorized says KernelUnsupported; any other
        # reason is a crash in kernel codegen the run degraded around.
        reasons = interp.kernels.stats["reasons"].values() \
            if interp.kernels is not None else ()
        codegen = sorted(r for r in reasons
                         if not r.startswith("KernelUnsupported"))
        return {"fallbacks": fallbacks, "codegen": codegen}

    def _run_dmp(self, spec: KernelSpec, cfg: BackendConfig
                 ) -> Tuple[Dict[str, np.ndarray], Dict[str, int]]:
        compiled = self.session.compile(spec.render()).lower(
            "dmp", grid=cfg.grid, execution_mode=cfg.execution_mode,
            threads=cfg.threads, **cfg.option_dict())
        plan = compiled.distribute(
            source_builder=lambda shape: spec.render(shape=shape),
            entry=spec.entry,
        )
        arrays, _ = self.inputs_for(spec)
        result = plan.run(arrays[spec.arrays[0]], iterations=cfg.iterations)
        return {spec.arrays[0]: result.field}, {"fallbacks": 0}

    def run_oracle(self, spec: KernelSpec,
                   aliased: bool = False) -> Dict[str, np.ndarray]:
        """The scalar reference: cpu backend, pure interpretation."""
        outputs, _ = self._run_plain(spec, "cpu", "interpret", 1, {},
                                     aliased=aliased)
        return outputs

    def run_dmp_oracle(self, spec: KernelSpec,
                       iterations: int = _DMP_ITERATIONS) -> Dict[str, np.ndarray]:
        """The distributed reference: 1-rank scatter/gather plan on the
        scalar interpreter (padded ghost-plane semantics, no vectorization)."""
        cfg = _cfg("dmp-oracle/interpret", "dmp", "interpret", grid=(1, 1),
                   iterations=iterations)
        outputs, _ = self._run_dmp(spec, cfg)
        return outputs

    def run_config(self, spec: KernelSpec, cfg: BackendConfig
                   ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
        if cfg.backend == "dmp":
            outputs, stats = self._run_dmp(spec, cfg)
        else:
            outputs, interp = self._run_plain(
                spec, cfg.backend, cfg.execution_mode, cfg.threads,
                cfg.option_dict(), aliased=cfg.aliased)
            stats = self._run_stats(interp)
        if self.fault_hook is not None:
            self.fault_hook(spec, cfg.label, outputs)
        return outputs, stats

    # -- comparison ----------------------------------------------------------

    @staticmethod
    def compare(expected: Dict[str, np.ndarray],
                actual: Dict[str, np.ndarray]) -> Tuple[Tuple[str, ...], float]:
        """Bitwise comparison of every output array; returns the names that
        differ and the largest absolute elementwise difference among them."""
        differing = []
        max_diff = 0.0
        for name, ref in expected.items():
            got = actual[name]
            if ref.tobytes() != got.tobytes():
                differing.append(name)
                with np.errstate(invalid="ignore"):
                    delta = np.abs(ref - got)
                finite = delta[np.isfinite(delta)]
                diff = float(finite.max()) if finite.size else float("inf")
                max_diff = max(max_diff, diff)
        return tuple(differing), max_diff

    # -- the per-case driver -------------------------------------------------

    def _expected(self, spec: KernelSpec, cfg: BackendConfig,
                  known: Dict) -> Dict[str, np.ndarray]:
        """The oracle outputs ``cfg`` is judged against, run once a case."""
        key = (cfg.backend == "dmp", cfg.aliased)
        if key not in known:
            known[key] = self.run_dmp_oracle(spec, cfg.iterations) if key[0] \
                else self.run_oracle(spec, cfg.aliased)
        return known[key]

    def _judge(self, spec: KernelSpec, cfg: BackendConfig,
               oracles: Dict) -> Tuple[List[Divergence], int]:
        """The divergences of ``spec`` run under ``cfg``, and the run's
        fallback count.  A crash is a finding, and so is each codegen reason
        and any output that is not bitwise equal to the oracle's."""
        def found(kind: str, detail: str, **extra) -> Divergence:
            return Divergence(seed=spec.seed, config_label=cfg.label,
                              backend=cfg.backend, kind=kind, detail=detail,
                              spec=spec, **extra)

        try:
            outputs, stats = self.run_config(spec, cfg)
        except InterpreterError as err:
            # Crosscheck replays every vectorized sweep through the scalar
            # oracle and raises on mismatch — a caught miscompile.
            return [found("crosscheck", str(err).splitlines()[0])], 0
        except Exception as err:  # noqa: BLE001 — a crash IS a finding
            return [found("error", f"{type(err).__name__}: {err}")], 0
        divergences = []
        if stats.get("codegen"):
            divergences.append(found("codegen", "; ".join(stats["codegen"])))
        differing, max_diff = self.compare(
            self._expected(spec, cfg, oracles), outputs)
        if differing:
            divergences.append(found(
                "bitwise", "outputs differ from the scalar oracle",
                arrays=differing, max_abs_diff=max_diff))
        return divergences, stats.get("fallbacks", 0)

    def run_case(self, spec: KernelSpec) -> CaseResult:
        result = CaseResult(spec=spec)
        oracles = {(False, False): self.run_oracle(spec)}
        for cfg in default_matrix(spec, self.backends):
            counters = result.per_backend.setdefault(cfg.backend,
                                                     _backend_counters())
            divergences, fallbacks = self._judge(spec, cfg, oracles)
            result.configs_run += 1
            result.divergences += divergences
            counters["runs"] += 1
            counters["divergences"] += len(divergences)
            counters["fallbacks"] += fallbacks
        return result

    def reproduces(self, spec: KernelSpec, config_label: str) -> bool:
        """Does ``config_label`` still diverge for ``spec``?  The minimizer's
        predicate: only the named configuration is re-run."""
        for cfg in default_matrix(spec, self.backends):
            if cfg.label == config_label:
                return bool(self._judge(spec, cfg, {})[0])
        return False


class Farm:
    """Drives N seeds through one scenario under a time budget.

    ``scenario`` is a :class:`DifferentialRunner` or a
    :class:`~repro.fuzz.chaos.ChaosRunner`: an object with a
    ``session`` and a ``run_case(spec)`` returning a :class:`CaseResult`.
    """

    def __init__(self, scenario, seeds: Optional[Iterable[int]] = None, *,
                 count: Optional[int] = None, start: int = 0,
                 generator_config: GeneratorConfig = DEFAULT_CONFIG,
                 time_budget: Optional[float] = None):
        if seeds is None:
            seeds = range(start, start + (count if count is not None else 10))
        self.scenario = scenario
        self.seeds = list(seeds)
        self.generator_config = generator_config
        self.time_budget = time_budget

    @property
    def session(self) -> Session:
        return self.scenario.session

    def run(self, on_case: Optional[Callable[[CaseResult], None]] = None
            ) -> Report:
        report = Report()
        started = time.perf_counter()
        for position, seed in enumerate(self.seeds):
            if (self.time_budget is not None
                    and time.perf_counter() - started > self.time_budget):
                report.budget_exhausted = True
                report.seeds_skipped = len(self.seeds) - position
                break
            spec = generate_spec(seed, self.generator_config)
            result = self.scenario.run_case(spec)
            report.merge_case(result)
            if on_case is not None:
                on_case(result)
        report.seconds = time.perf_counter() - started
        report.cache_stats = dict(self.session.cache_stats)
        return report


__all__ = [
    "BackendConfig",
    "default_matrix",
    "Divergence",
    "CaseResult",
    "Report",
    "DifferentialRunner",
    "Farm",
    "FaultHook",
]
