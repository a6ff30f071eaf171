"""Plain-text reporting of experiment results (the rows the paper plots)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


@dataclass
class ExperimentResult:
    """Rows of one table or figure plus provenance metadata."""

    experiment: str
    description: str
    columns: Tuple[str, ...]
    rows: List[Tuple] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def add(self, *values) -> None:
        self.rows.append(tuple(values))


def _format_value(value) -> str:
    """Floats to three significant digits (``0.00612``, ``12.0``), or to
    whole digits with separators once that rounds to 100 or more in
    magnitude."""
    if isinstance(value, float):
        if abs(value) >= 99.95:
            return f"{value:,.0f}"
        return f"{value:#.3g}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an ExperimentResult as an aligned text table."""
    header = [str(c) for c in result.columns]
    rows = [[_format_value(v) for v in row] for row in result.rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        f"# {result.experiment}: {result.description}",
        " | ".join(h.ljust(w) for h, w in zip(header, widths)),
        "-+-".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    if result.notes:
        lines.append("")
        for key, value in result.notes.items():
            lines.append(f"  note[{key}] = {value}")
    return "\n".join(lines)


def kernel_stats_table(kernels) -> str:
    """Render per-kernel runtime statistics as an aligned text table,
    slowest kernels first.

    Accepts anything exposing ``stats["per_kernel"]`` mapping a kernel label
    to invocation count and cumulative wall time — a
    :class:`repro.runtime.KernelCompiler` (CPU/OpenMP sweeps and the
    vectorized GPU launch engine, recorded by the interpreter around every
    sweep) or a :class:`repro.runtime.SimulatedGPU` (per-launch wall time by
    kernel name)."""
    result = ExperimentResult(
        experiment="kernel_stats",
        description="per-kernel runtime statistics",
        columns=("kernel", "invocations", "total_s", "mean_ms"),
    )
    per_kernel = dict(kernels.stats.get("per_kernel", {}))
    for label, entry in sorted(per_kernel.items(),
                               key=lambda item: -item[1]["seconds"]):
        invocations = int(entry["invocations"])
        seconds = float(entry["seconds"])
        result.add(label, invocations, seconds,
                   seconds / invocations * 1e3 if invocations else "-")
    if not result.rows:
        result.notes["empty"] = "no kernels executed"
    return format_table(result)


def fuzz_summary_table(report) -> str:
    """Render a differential :class:`repro.fuzz.Report` as an aligned text table:
    one row per backend (runs, divergences, interpreter fallbacks) plus
    totals, session cache counters and timing in the notes."""
    result = ExperimentResult(
        experiment="fuzz_summary",
        description=(f"{report.cases} cases x differential matrix "
                     f"({report.configs_run} configurations)"),
        columns=("backend", "runs", "divergences", "fallbacks"),
    )
    for backend in sorted(report.per_backend):
        counters = report.per_backend[backend]
        result.add(backend, counters["runs"], counters["divergences"],
                   counters["fallbacks"])
    if not result.rows:
        result.notes["empty"] = "no cases executed"
    result.notes["divergences"] = len(report.divergences)
    result.notes["seconds"] = f"{report.seconds:.2f}"
    if report.cache_stats:
        result.notes["cache"] = (
            f"{report.cache_stats.get('hits', 0)} hits, "
            f"{report.cache_stats.get('misses', 0)} misses, "
            f"{report.cache_stats.get('artifacts', 0)} artifacts")
        if "disk_hits" in report.cache_stats:
            result.notes["cache"] += (
                f", {report.cache_stats['disk_hits']} disk hits")
    if report.budget_exhausted:
        result.notes["time_budget"] = (
            f"exhausted, {report.seeds_skipped} seeds skipped")
    return format_table(result)


def service_metrics_table(metrics) -> str:
    """Render a :class:`repro.serve.ServiceMetrics` snapshot as an aligned
    text table: request/coalescing/backpressure counters, the cache layers
    (memory, disk, true backend lowers) and per-stage latency percentiles.
    """
    result = ExperimentResult(
        experiment="service_metrics",
        description="compile/run service counters and stage latencies",
        columns=("counter", "value"),
    )
    result.add("submitted_compiles", metrics.submitted_compiles)
    result.add("submitted_runs", metrics.submitted_runs)
    result.add("completed", metrics.completed)
    result.add("failed", metrics.failed)
    result.add("coalesced", metrics.coalesced)
    result.add("rejected", metrics.rejected)
    result.add("timeouts", metrics.timeouts)
    result.add("queue_depth_high_water", metrics.queue_depth_high_water)
    result.add("memory_hits", metrics.memory_hits)
    result.add("disk_hits", metrics.disk_hits)
    result.add("lowers (misses)", metrics.misses)
    result.add("artifacts", metrics.artifacts)
    for stage in sorted(metrics.latency):
        sample = metrics.latency[stage]
        if not sample.get("count"):
            continue
        result.add(
            f"latency[{stage}]",
            (f"p50 {sample['p50'] * 1e3:.2f}ms / "
             f"p90 {sample['p90'] * 1e3:.2f}ms / "
             f"p99 {sample['p99'] * 1e3:.2f}ms "
             f"(n={sample['count']})"),
        )
    if metrics.store:
        store = metrics.store
        result.notes["store"] = (
            f"{store.get('hits', 0)} hits, {store.get('misses', 0)} misses, "
            f"{store.get('writes', 0)} writes, "
            f"{store.get('corrupt_entries', 0)} corrupt, "
            f"{store.get('evictions', 0)} evicted")
    return format_table(result)


def recovery_report_table(report) -> str:
    """Render a chaos run's recovery accounting as an aligned text table.

    Accepts a chaos :class:`repro.fuzz.Report` (the farm's aggregate — cases,
    scenarios and timing land in the notes) or a bare
    :class:`repro.resilience.RecoveryReport` from a single distributed run.
    One row per injected fault kind and per non-zero recovery mechanism, so
    the table answers the chaos question at a glance: everything injected,
    and everything the runtime did to survive it.
    """
    recovery = getattr(report, "recovery", report)
    result = ExperimentResult(
        experiment="chaos_recovery",
        description="injected faults vs recovery mechanisms exercised",
        columns=("counter", "count"),
    )
    for kind in sorted(recovery.injected):
        result.add(f"injected[{kind}]", recovery.injected[kind])
    for name in recovery._COUNTER_FIELDS:
        value = getattr(recovery, name)
        if value or name == "unrecovered":
            result.add(name, value)
    if not recovery.injected:
        result.notes["empty"] = "no faults injected"
    if report is not recovery:  # a farm aggregate
        result.notes["cases"] = report.cases
        result.notes["scenarios"] = report.configs_run
        result.notes["divergences"] = len(report.divergences)
        result.notes["seconds"] = f"{report.seconds:.2f}"
        if report.budget_exhausted:
            result.notes["time_budget"] = (
                f"exhausted, {report.seeds_skipped} seeds skipped")
    result.notes["verdict"] = (
        "clean" if getattr(report, "ok", recovery.ok) else "NOT RECOVERED")
    return format_table(result)


def run_all(names: Iterable[str] = ()) -> str:
    """Run the requested experiments (all by default) and return their tables.

    The final line reports the shared harness session's measured artifact
    cache counters: experiments that recompile a (source, backend, options)
    combination another experiment already compiled — e.g. PW advection on
    ``cpu`` in Figure 2 and again in the fusion ablation — hit the cache
    instead of re-running discovery/extraction.
    """
    from .experiments import ALL_EXPERIMENTS, harness_session

    names = list(names) or list(ALL_EXPERIMENTS)
    sections: List[str] = []
    for name in names:
        sections.append(format_table(ALL_EXPERIMENTS[name]()))
    stats = harness_session().cache_stats
    sections.append(
        f"# session artifact cache: {stats['hits']} hits, "
        f"{stats['misses']} misses, {stats['artifacts']} artifacts"
    )
    return "\n\n".join(sections)


__all__ = ["ExperimentResult", "format_table", "fuzz_summary_table",
           "kernel_stats_table", "recovery_report_table", "run_all"]
