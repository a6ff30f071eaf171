"""The traced pass: per-layer metrics, named after this repo's modules.

Everything is measured from outside the program: spans around its public
callables (``bench/trace.py``), its public counters (``interp.stats``,
``interp.kernels.stats``, ``gpu.summary()``, ``rank_stats``,
``ServiceMetrics``, ``session.cache_stats``, ``store.stats``), and direct
timed calls.  No end-to-end metric is ever taken from this pass.

Conventions for a value:

* a layer that is not on the workload's path did no work and took no time:
  its counts and times are real zeros (``gpu.launches`` is 0 on ``pw96_cpu``);
* a metric whose tracing target could not be resolved is ``None`` and its
  name maps to the reason in the returned notes — the run goes on.

Counts come from fixed phases or from one operation, so they repeat exactly
from run to run although the loops around them are time-boxed.
"""

from __future__ import annotations

import importlib
import threading
import time
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import repro
from repro.serve import ArtifactStore

from . import environment, measure, stats
from .trace import TARGETS, Span, Tracer, coverage, self_times
from .workloads import OUT_DIR, ServeCatalogue, Workload

#: Cold compile -> store save -> memory hit -> reload cycles traced per run.
COMPILE_CYCLES = 5
SMOKE_COMPILE_CYCLES = 1
#: Operations for the probes that re-run the workload in another
#: configuration (one thread, one rank, bare handle).
PROBE_OPERATIONS = 20
#: Share of ``--seconds`` given to the loop of warm operations, untraced and
#: traced in turn; the rest is left for the cold start, cycles and probes.
OPERATIONS_SHARE = 0.65

#: Tracing targets each span-derived metric leans on: if one is unresolved
#: the metric is reported as unavailable, never as a misleading zero.
NEEDS = {
    "frontend.compile_to_fir_ms": ("frontend.compile_to_fir",),
    "transforms.discovery_ms": ("StencilDiscoveryPass.apply",),
    "transforms.extraction_ms": ("ExtractStencilsPass.apply",),
    "transforms.backend_transform_ms": ("Backend.transform",),
    "ir.print_ms": ("print_module",),
    "ir.parse_ms": ("parse_module",),
    "store.save_ms": ("ArtifactStore.save",),
    "store.load_ms": ("ArtifactStore.load",),
    "interpreter.call_ms_p50": ("Interpreter.call",),
    "interpreter.self_ms": ("Interpreter.call",
                            "KernelCompiler.record_invocation"),
    "kernel_compiler.codegen_ms": ("KernelCompiler.kernel_for",
                                   "GpuKernelEngine.kernel_for"),
    "kernel_compiler.kernel_source_lines": ("KernelCompiler.kernel_for",
                                            "GpuKernelEngine.kernel_for"),
    "kernel_compiler.kernel_ms_per_op": ("KernelCompiler.record_invocation",),
    "gpu.transfer_ms": ("SimulatedGPU.memcpy",),
    "dmp.scatter_ms": ("DistributedExecutor.scatter",),
    "dmp.gather_ms": ("DistributedExecutor.gather",),
    "trace.compile_coverage": ("Session.lower",),
}
#: Counters summed over the interpreters one operation created.
INTERPRETER_COUNTERS = (
    "vectorized_sweeps", "vectorize_fallbacks", "parallel_sweeps",
    "parallel_tiles", "parallel_fallbacks", "schedule_tiles",
    "schedule_fallbacks", "gpu_launches_vectorized", "gpu_launch_fallbacks",
)
SERVICE_METRICS = (
    "queue_wait_ms_p50", "lower_ms_p50", "execute_ms_p50", "overhead_ms",
    "rps_2clients", "memory_hits", "disk_hits", "misses", "coalesced",
    "rejected", "failed", "queue_depth_high_water")
DMP_METRICS = (
    "messages", "bytes", "halo_ms_max", "kernel_ms_max", "scatter_ms",
    "gather_ms", "orchestration_ms", "single_rank_ms_p50")

Metrics = Dict[str, Optional[float]]


def _ms(samples: Iterable[float]) -> float:
    """Median in milliseconds; an idle layer (no samples) took 0 ms."""
    samples = list(samples)
    return stats.median(samples) * 1e3 if samples else 0.0


def _micro(fn: Callable, repetitions: int) -> float:
    """Median seconds of ``repetitions`` direct calls."""
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return stats.median(samples)


def _per_operation(spans: Sequence[Span], roots: Sequence[Span],
                   prefix: str, value=lambda s: s.duration) -> List[float]:
    """For each root operation: ``value`` summed over its spans whose name
    starts with ``prefix`` (0.0 for an operation that has none)."""
    totals = {root.op: 0.0 for root in roots}
    for span in spans:
        if span.op in totals and span.name.startswith(prefix):
            totals[span.op] += value(span)
    return list(totals.values())


def _outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans called ``name`` that are not nested in another of that name
    (``DmpBackend.transform`` calls ``Backend.transform``)."""
    by_id = {s.id: s for s in spans}
    return [s for s in spans if s.name == name
            and getattr(by_id.get(s.parent), "name", None) != name]


# -- probes that run the workload another way (tracing off) --------------------


def _on_handle(w: Workload, rec: measure.Recorder, handle,
               operations: int) -> Optional[float]:
    """p50 (ms) of the workload's operation run on another ``handle``."""
    original, w.handle = w.handle, handle
    try:
        run_s, _ = measure.operations(w, rec, 0.0, operations, reference=False)
    finally:
        w.handle = original
    return _ms(run_s) if run_s else None


def _parallel_executor(w: Workload, rec, handle, counters: Dict[str, int],
                       operations: int) -> Metrics:
    threads = handle.options.threads
    sweeps = counters["parallel_sweeps"]
    out: Metrics = {
        "parallel_executor.threads": threads,
        "parallel_executor.tiles_per_sweep":
            counters["parallel_tiles"] / sweeps if sweeps else 0.0,
        "parallel_executor.one_thread_ms_p50": 0.0,
        "parallel_executor.speedup_2t": 0.0,
    }
    if threads > 1:
        # Both sides with the one-CPU pin lifted: what a second core buys
        # here and now (on this box that is 1x or 2x by the minute).
        with environment.all_cpus():
            one = _on_handle(w, rec, w.handle.with_threads(1), operations)
            many = _on_handle(w, rec, w.handle, operations)
        out["parallel_executor.one_thread_ms_p50"] = one
        out["parallel_executor.speedup_2t"] = one / many if one and many \
            else None
    return out


def _two_clients(w: ServeCatalogue, rec: measure.Recorder) -> float:
    """Requests per second with two closed-loop clients on the warm set.
    Feeds no end-to-end metric: on a GIL-bound box the two clients' latencies
    are bimodal and do not repeat."""
    clients = [measure.Recorder(), measure.Recorder()]

    def client(recorder: measure.Recorder, offset: int) -> None:
        for i in range(w.sources):
            index = (offset + i) % w.sources
            args = w.stage()
            recorder.timed(lambda: w.request(w.service, index, args),
                           check=w.correct)

    threads = [threading.Thread(target=client, args=(recorder, i * 7))
               for i, recorder in enumerate(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    for recorder in clients:
        rec.attempted += recorder.attempted
        rec.failed += recorder.failed
        rec.errors.extend(recorder.errors)
    return 2 * w.sources / elapsed


def _service_counters(w: Workload, rec) -> Metrics:
    """Taken while the service has seen only fixed phases — the cold
    catalogue, then exactly one warm round — so the counts repeat."""
    out: Metrics = {f"service.{name}": 0.0 for name in SERVICE_METRICS}
    if not isinstance(w, ServeCatalogue):
        return out
    for index in range(w.sources):
        args = w.stage()
        rec.timed(lambda: w.request(w.service, index, args), check=w.correct)
    seen = w.service.metrics()
    out.update({
        "service.memory_hits": seen.memory_hits,
        "service.disk_hits": w.reload_metrics.disk_hits,
        "service.misses": seen.misses,
        "service.coalesced": seen.coalesced,
        "service.rejected": seen.rejected,
        "service.failed": seen.failed,
        "service.queue_depth_high_water": seen.queue_depth_high_water,
    })
    return out


def _service_times(w: Workload, rec, run_ms: float, operations: int) -> Metrics:
    out: Metrics = {}
    if not isinstance(w, ServeCatalogue):
        return out
    seen = w.service.metrics()
    for stage in ("queue_wait", "lower", "execute"):
        out[f"service.{stage}_ms_p50"] = \
            seen.latency.get(stage, {}).get("p50", 0.0) * 1e3
    # Per-request overhead: the warm request against the bare handle's run.
    handle = w.lower(w.warm_session())
    bare: List[float] = []
    for _ in range(operations):
        args = w.stage()
        rec.timed(lambda: handle.run(w.entry, *args), into=bare)
    out["service.overhead_ms"] = run_ms - _ms(bare) if bare else None
    out["service.rps_2clients"] = _two_clients(w, rec)
    return out


def _gpu(w: Workload, in_ops: Sequence[Span], roots: Sequence[Span],
         interpreters: Dict[str, list]) -> Metrics:
    device = getattr(w, "device", None)
    summary = device.summary() if device is not None else {}
    kernel_s = [sum(float(i.stats["gpu_seconds"]) for i in created)
                for created in interpreters.values()]
    return {
        "gpu.launches": summary.get("launches", 0),
        "gpu.h2d_bytes": summary.get("h2d_bytes", 0),
        "gpu.d2h_bytes": summary.get("d2h_bytes", 0),
        "gpu.on_demand_bytes": summary.get("on_demand_bytes", 0),
        "gpu.peak_allocated_bytes": summary.get("peak_allocated_bytes", 0),
        "gpu.degradation_events": sum(summary.get("degradation", {}).values()),
        "gpu.kernel_ms": _ms(kernel_s),
        "gpu.transfer_ms": _ms(
            _per_operation(in_ops, roots, "SimulatedGPU.memcpy")),
    }


def _dmp(w: Workload, rec, tracer: Tracer, in_ops: Sequence[Span],
         roots: Sequence[Span], operations: int) -> Metrics:
    out: Metrics = {f"dmp.{name}": 0.0 for name in DMP_METRICS}
    results = {op: result for op, result
               in tracer.captured.get("DistributedExecutor.run", [])
               if op is not None and op.startswith("op-")}
    if not results:
        return out
    walls = {root.op: root.duration for root in roots}
    # The slowest rank sets the operation's time.
    busiest = {op: max(r.halo_seconds + r.kernel_seconds
                       for r in result.rank_stats)
               for op, result in results.items()}
    last = results[roots[-1].op]
    out.update({
        "dmp.messages": last.messages,
        "dmp.bytes": last.bytes,
        "dmp.halo_ms_max": _ms(max(r.halo_seconds for r in res.rank_stats)
                               for res in results.values()),
        "dmp.kernel_ms_max": _ms(max(r.kernel_seconds for r in res.rank_stats)
                                 for res in results.values()),
        "dmp.scatter_ms": _ms(
            _per_operation(in_ops, roots, "DistributedExecutor.scatter")),
        "dmp.gather_ms": _ms(
            _per_operation(in_ops, roots, "DistributedExecutor.gather")),
        "dmp.orchestration_ms": _ms(walls[op] - busiest[op]
                                    for op in results),
        "dmp.single_rank_ms_p50": _on_handle(
            w, rec, w.plan(w.warm_session(), grid=(1, 1)), operations),
    })
    return out


# -- the compile side ----------------------------------------------------------


def _compile_cycles(w: Workload, tracer: Tracer, cycles: int) -> Dict:
    """Traced cold compile (+ store save), memory hit and reload, ``cycles``
    times on fresh sessions and stores; returns the public counters seen."""
    seen = {
        "passes": [], "handle": None, "entry_bytes": 0,
        "cache": {"hits": 0, "misses": 0, "disk_hits": 0},
        "store": {"writes": 0, "hits": 0, "misses": 0, "corrupt_entries": 0},
    }
    for i in range(cycles):
        directory = w.scratch("cycle")
        cold = repro.Session(store=ArtifactStore(directory))
        with tracer.operation("compile", i):
            handle = w.lower(cold)
        with tracer.operation("hit", i):
            w.lower(cold)
        fresh = repro.Session(store=ArtifactStore(directory))
        with tracer.operation("reload", i):
            w.lower(fresh)
        seen["passes"].append(handle.pass_statistics)
        seen["handle"] = handle
        seen["entry_bytes"] = cold.store.total_bytes()
        for session in (cold, fresh):
            for key in seen["cache"]:
                seen["cache"][key] += session.cache_stats.get(key, 0)
            for key in seen["store"]:
                seen["store"][key] += session.store.stats.get(key, 0)
    return seen


def _pass_times(cycles: List[List], declared: Iterable[str]) -> Metrics:
    """``transforms.pass_ms.<pass>`` from the public ``pass_statistics``:
    per-cycle sums per pass name, median over cycles.  Passes the benchmark
    does not name are summed under ``.other``."""
    prefix = "transforms.pass_ms."
    names = {name[len(prefix):] for name in declared if name.startswith(prefix)}
    per_cycle: Dict[str, List[float]] = {name: [] for name in names}
    for passes in cycles:
        totals = dict.fromkeys(names, 0.0)
        for stat in passes:
            key = stat.name if stat.name in names else "other"
            totals[key] = totals.get(key, 0.0) + stat.seconds
        for name in names:
            per_cycle[name].append(totals[name])
    return {prefix + name: _ms(values) for name, values in per_cycle.items()}


def _call_by_name(spec: str, *args):
    """Call ``module:function`` resolved now; ``(value, reason)``."""
    module_name, _, attr = spec.partition(":")
    try:
        return getattr(importlib.import_module(module_name), attr)(*args), None
    except (ImportError, AttributeError) as exc:
        return None, f"{spec} unresolved: {type(exc).__name__}: {exc}"


def _kernel_source_lines(tracer: Tracer) -> int:
    """Lines of generated kernel source behind the cold start's kernels."""
    kernels = {}
    for name in ("KernelCompiler.kernel_for", "GpuKernelEngine.kernel_for"):
        for op, bound in tracer.captured.get(name, []):
            kernel = getattr(bound, "kernel", None)
            if op == "cold_start-0" and kernel is not None:
                kernels[id(kernel)] = kernel
    return sum(len(getattr(k, "source", "").splitlines())
               for k in kernels.values())


def _operations_in_turn(w: Workload, rec: measure.Recorder, tracer: Tracer,
                        targets, seconds: float, minimum: int
                        ) -> Tuple[List[float], List[float], List[float]]:
    """The closed loop of ``measure.operations`` with every operation run
    twice, untraced and with ``targets`` wrapped, then the NumPy reference.
    Which of the two goes first (on the caches the reference left cold)
    changes every time.  Wrapping and unwrapping are outside the timed
    regions."""
    run_s: List[float] = []
    ref_s: List[float] = []
    traced_s: List[float] = []
    deadline = time.perf_counter() + seconds
    done = 0
    while done < minimum or time.perf_counter() < deadline:
        for traced in (done % 2 == 0, done % 2 == 1):
            args = w.stage()
            if traced:
                with tracer.instrument(targets):
                    rec.timed(lambda: w.operate(args), check=w.correct,
                              into=traced_s, span=tracer.operation("op", done))
            else:
                rec.timed(lambda: w.operate(args), check=w.correct, into=run_s)
        ref_s.append(measure.clock(w.reference_op))
        done += 1
    return run_s, ref_s, traced_s


# -- the pass ------------------------------------------------------------------


def traced_pass(w: Workload, rec: measure.Recorder, seconds: float,
                first_setup: Optional[float], minimum: int, smoke: bool,
                declared: Iterable[str] = (),
                targets: Sequence[Tuple[str, str]] = TARGETS
                ) -> Tuple[Metrics, Dict[str, str], Dict]:
    """Per-layer metrics of one run; writes ``out/trace-<workload>.json``."""
    m: Metrics = {}
    notes: Dict[str, str] = {}
    probes = minimum if smoke else PROBE_OPERATIONS
    cycles = SMOKE_COMPILE_CYCLES if smoke else COMPILE_CYCLES

    # 1. Tracing on: one cold start and the compile cycles.
    tracer = Tracer(w.name)
    with tracer.instrument(targets):
        with measure.kernels_forgotten() as reason:
            if reason:
                notes["kernel_compiler.codegen_ms"] = reason
            with tracer.operation("cold_start", 0):
                w.generate()
                w.cold_start()
        compiled = _compile_cycles(w, tracer, cycles)

    # 2. Tracing off: the compile and reload phases of the end-to-end run,
    #    here for their absolute times.  Then the warm operations, untraced
    #    and traced in turn so that both see the same spells of the box: the
    #    untraced ones give the tail and the baseline of the overhead figure,
    #    the traced ones the spans.
    compile_s: List[float] = []
    reload_s: List[float] = []
    python_s: List[float] = []
    w.compile_phase(measure.with_python_reference(
        partial(rec.timed, into=compile_s), python_s))
    w.reload_phase(measure.with_python_reference(
        partial(rec.timed, into=reload_s), python_s))
    m.update(_service_counters(w, rec))
    run_s, ref_s, traced_s = _operations_in_turn(
        w, rec, tracer, targets, seconds * OPERATIONS_SHARE, minimum)
    run_ms = _ms(run_s)
    tail_percentile, tail_value, _ = stats.tail(run_s) if run_s else (50, 0, 0)
    m["run.tail_ms"] = tail_value * 1e3
    m["run.tail_percentile"] = tail_percentile
    m["run.samples"] = len(run_s)
    m.update(measure.absolute_times(w, compile_s, reload_s, python_s, run_s,
                                    ref_s))
    m["setup.process_cold_s"] = first_setup

    # 3. Tracing off: direct probes.
    m.update(_service_times(w, rec, run_ms, probes))
    session = w.warm_session()
    handle = w.lower(session)
    m["api.lower_hit_us"] = _micro(lambda: w.lower(session), 200) * 1e6
    m["api.interpreter_build_us"] = _micro(handle.interpreter, 50) * 1e6
    fir, reason = _call_by_name("repro.frontend:compile_to_fir", w.source)
    m["frontend.fir_ops"] = sum(1 for _ in fir.walk()) if fir else None
    if reason:
        notes["frontend.fir_ops"] = reason

    # 4. Derive.  Times are medians over cycles or operations; counters come
    #    from the last traced operation.
    own = self_times(tracer.spans)
    compile_spans = tracer.within("compile")
    compile_roots = tracer.named("compile")
    reload_spans = tracer.within("reload")
    reload_roots = tracer.named("reload")
    in_ops = tracer.within("op")
    roots = tracer.named("op")
    interpreters: Dict[str, list] = {root.op: [] for root in roots}
    for op, interp in tracer.captured.get("CompiledProgram.interpreter", []):
        if op in interpreters:
            interpreters[op].append(interp)
    last = interpreters[roots[-1].op] if roots else []
    counters = {key: sum(int(i.stats.get(key, 0)) for i in last)
                for key in INTERPRETER_COUNTERS}
    kernel_stats = [i.kernels.stats for i in last if i.kernels is not None]

    handle = compiled["handle"]
    m["frontend.compile_to_fir_ms"] = _ms(_per_operation(
        compile_spans, compile_roots, "frontend.compile_to_fir"))
    m["transforms.discovery_ms"] = _ms(_per_operation(
        compile_spans, compile_roots, "StencilDiscoveryPass.apply"))
    m["transforms.extraction_ms"] = _ms(_per_operation(
        compile_spans, compile_roots, "ExtractStencilsPass.apply"))
    m["transforms.backend_transform_ms"] = _ms(_per_operation(
        _outermost(compile_spans, "Backend.transform"), compile_roots,
        "Backend.transform"))
    m.update(_pass_times(compiled["passes"], declared))
    m["transforms.ops_after"] = sum(1 for module in handle.modules
                                    for _ in module.walk())
    m["transforms.stencils_discovered"] = sum(
        handle.discovered_stencils.values())
    m["transforms.kernels_extracted"] = len(handle.extracted_functions)

    m["ir.print_ms"] = _ms(_per_operation(
        compile_spans, compile_roots, "print_module"))
    m["ir.parse_ms"] = _ms(_per_operation(
        reload_spans, reload_roots, "parse_module"))
    texts = [_call_by_name("repro.ir.printer:print_module", module)
             for module in handle.modules]
    m["ir.text_bytes"] = None if any(reason for _, reason in texts) \
        else sum(len(text.encode("utf-8")) for text, _ in texts)
    m["store.save_ms"] = _ms(_per_operation(
        compile_spans, compile_roots, "ArtifactStore.save"))
    m["store.load_ms"] = _ms(_per_operation(
        reload_spans, reload_roots, "ArtifactStore.load"))
    m["store.entry_bytes"] = compiled["entry_bytes"]
    for key, value in compiled["store"].items():
        m[f"store.{key}"] = value
    m["api.cache_hits"] = compiled["cache"]["hits"]
    m["api.cache_misses"] = compiled["cache"]["misses"]
    m["api.disk_hits"] = compiled["cache"]["disk_hits"]

    m["interpreter.call_ms_p50"] = _ms(
        s.duration for s in in_ops if s.name == "Interpreter.call")
    m["interpreter.self_ms"] = _ms(_per_operation(
        in_ops, roots, "Interpreter.call", value=lambda s: own[s.id]))
    for key in INTERPRETER_COUNTERS:
        m[f"interpreter.{key}"] = counters[key]
    m["interpreter.stencil_points"] = sum(
        int(i.stats.get("stencil_points_computed", 0)) for i in last)
    fallbacks = sum(counters[k] for k in INTERPRETER_COUNTERS
                    if k.endswith("fallbacks"))
    attempts = fallbacks + counters["vectorized_sweeps"] \
        + counters["gpu_launches_vectorized"]
    m["interpreter.fallback_share"] = fallbacks / attempts if attempts else 0.0

    m["kernel_compiler.codegen_ms"] = sum(
        s.duration for s in tracer.within("cold_start")
        if s.name.endswith(".kernel_for")) * 1e3
    m["kernel_compiler.kernel_source_lines"] = _kernel_source_lines(tracer)
    m["kernel_compiler.kernel_ms_per_op"] = _ms(
        _per_operation(in_ops, roots, "kernel:"))
    for key in ("compiled", "cache_hits", "unsupported"):
        m[f"kernel_compiler.{key}"] = sum(int(k.get(key, 0))
                                          for k in kernel_stats)
    m["kernel.flops_computed"] = w.flops_per_op
    m["kernel.bytes_computed"] = w.bytes_per_op
    m["kernel.gbytes_per_s_computed"] = \
        w.bytes_per_op / (run_ms * 1e-3) / 1e9 if run_ms else None

    m.update(_parallel_executor(w, rec, handle, counters, probes))
    m.update(_gpu(w, in_ops, roots, interpreters))
    m.update(_dmp(w, rec, tracer, in_ops, roots, probes))

    m["trace.spans_per_op"] = stats.median(
        _per_operation(in_ops, roots, "", value=lambda s: 1)) if roots else 0
    m["trace.overhead_pct"] = (_ms(traced_s) - run_ms) / run_ms * 100.0 \
        if run_ms and traced_s else None
    m["trace.compile_coverage"] = stats.median(
        coverage(compile_spans, "Session.lower") or [0.0])
    m["trace.run_coverage"] = stats.median(
        coverage(tracer.spans, "op") or [0.0])

    for name, needed in NEEDS.items():
        missing = [t for t in needed if t in tracer.unresolved]
        if missing:
            m[name] = None
            notes[name] = "; ".join(f"tracing target {t} unresolved: "
                                    f"{tracer.unresolved[t]}" for t in missing)

    OUT_DIR.mkdir(exist_ok=True)
    device = getattr(w, "device", None)
    service = getattr(w, "service", None)
    results = tracer.captured.get("DistributedExecutor.run", [])
    tracer.write(OUT_DIR / f"trace-{w.name}.json", counters={
        "interp.stats": counters,
        "interp.kernels.stats": kernel_stats,
        "session.cache_stats": compiled["cache"],
        "store.stats": compiled["store"],
        "gpu.summary": device.summary() if device is not None else {},
        "rank_stats": [vars(r) for r in results[-1][1].rank_stats]
        if results else [],
        "ServiceMetrics": service.metrics().to_dict()
        if service is not None else {},
    })
    samples = {"untraced": len(run_s), "traced": len(traced_s),
               "compile_cycles": cycles, "spans": len(tracer.spans),
               "unresolved": dict(tracer.unresolved)}
    return m, notes, samples
