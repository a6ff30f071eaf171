"""Experiment drivers regenerating every figure of the paper's evaluation.

Each ``figureN`` function returns an :class:`ExperimentResult` whose rows hold
the same series the paper plots (throughput in MCells/s per configuration).
The compilation pipeline itself is exercised for real on a reduced grid (so
the experiment also validates numerics and collects event counts from the
simulated runtimes); paper-scale throughput comes from the analytic machine
models in :mod:`repro.runtime.cost_model`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import Session
from ..apps import gauss_seidel, pw_advection
from ..runtime.cost_model import (
    CPUCostModel,
    CRAY_PROFILE,
    DistributedCostModel,
    FLANG_PROFILE,
    GAUSS_SEIDEL_KERNEL,
    GPU_STRATEGIES,
    GPUCostModel,
    PW_ADVECTION_KERNEL,
    STENCIL_PROFILE,
    STRATEGY_HOST_REGISTER,
    STRATEGY_OPENACC_UNIFIED,
    STRATEGY_OPTIMISED,
)
from ..runtime.gpu_runtime import SimulatedGPU

#: One session for the whole harness: every experiment driver compiles
#: through it, so repeated compiles of the same (source, backend, options) —
#: e.g. the GPU data ablation running standalone *and* inside Figure 5 —
#: are measured cache hits instead of full discovery/extraction reruns.
_SESSION = Session()


def harness_session() -> Session:
    """The shared compile session (inspect ``.cache_stats`` for hit counts)."""
    return _SESSION


@dataclass
class ExperimentResult:
    """Rows of one regenerated table/figure plus provenance metadata."""

    experiment: str
    description: str
    columns: Tuple[str, ...]
    rows: List[Tuple] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def add(self, *values) -> None:
        self.rows.append(tuple(values))

    def series(self, label_column: int, value_column: int) -> Dict[object, float]:
        return {row[label_column]: row[value_column] for row in self.rows}


_PAPER_SIZES = {
    "256^3 (16M)": 256**3,
    "512^3 (134M)": 512**3,
    "1024^3 (1.1B)": 1024**3,
    "1290^3 (2.1B)": 1290**3,
}

_GPU_SIZES = {
    "128^3 (2M)": 128**3,
    "256^3 (16M)": 256**3,
    "512^3 (134M)": 512**3,
}

_KERNELS = {
    "gauss_seidel": GAUSS_SEIDEL_KERNEL,
    "pw_advection": PW_ADVECTION_KERNEL,
}


def _validate_small_run(benchmark: str, n: int = 12) -> Dict[str, float]:
    """Compile and execute the benchmark on a small grid; return error norms.

    This ties every modelled figure back to a real run of the compilation
    pipeline and interpreter.
    """
    if benchmark == "gauss_seidel":
        source = gauss_seidel.generate_source(n, niters=2)
        result = _SESSION.compile(source).lower("cpu")
        data = gauss_seidel.initial_condition(n)
        work = data.copy(order="F")
        result.run("gauss_seidel", work)
        reference = gauss_seidel.reference_jacobi(data, 2)
        return {"max_error": float(np.abs(work - reference).max()),
                "stencils": sum(result.discovered_stencils.values())}
    source = pw_advection.generate_source(n)
    result = _SESSION.compile(source).lower("cpu")
    u, v, w, su, sv, sw = pw_advection.initial_fields(n)
    result.run("pw_advection", u, v, w, su, sv, sw)
    rsu, rsv, rsw = pw_advection.reference(u, v, w)
    error = max(
        float(np.abs(su - rsu).max()),
        float(np.abs(sv - rsv).max()),
        float(np.abs(sw - rsw).max()),
    )
    return {"max_error": error, "stencils": sum(result.discovered_stencils.values())}


# ---------------------------------------------------------------------------
# Figure 2: single core CPU
# ---------------------------------------------------------------------------


def figure2_single_core(validate: bool = True) -> ExperimentResult:
    """Single-core throughput, both benchmarks, four problem sizes (Figure 2)."""
    result = ExperimentResult(
        experiment="figure2",
        description="Single core performance, Cray vs Flang-only vs Stencil",
        columns=("benchmark", "problem_size", "compiler", "mcells_per_s"),
    )
    model = CPUCostModel()
    for bench_name, kernel in _KERNELS.items():
        for size_label, cells in _PAPER_SIZES.items():
            for profile in (CRAY_PROFILE, FLANG_PROFILE, STENCIL_PROFILE):
                result.add(
                    bench_name, size_label, profile.name,
                    model.throughput_mcells(kernel, profile, cells, threads=1),
                )
        if validate:
            result.notes[f"{bench_name}_validation"] = _validate_small_run(bench_name)
    return result


# ---------------------------------------------------------------------------
# Figures 3 and 4: OpenMP multithreading
# ---------------------------------------------------------------------------


_THREAD_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)


def measured_openmp_scaling(
    benchmark: str = "pw_advection",
    thread_counts: Sequence[int] = (1, 2, 4),
    n: int = 64,
    repeats: int = 3,
    schedule: str = "static",
    chunk_size: Optional[int] = None,
) -> ExperimentResult:
    """*Measured* multi-thread throughput of the lowered OpenMP target.

    Unlike the analytic series of Figures 3–4 this actually executes the
    ``omp.wsloop`` nests: the module is compiled once with
    ``"openmp", lower_to_scf=True`` and each sweep runs through
    the vectorized backend's tiled parallel executor at every requested
    thread count (best-of-``repeats`` wall clock).  Rows carry throughput in
    MCells/s plus the speedup over the *first* requested thread count (pass
    ``thread_counts`` starting with 1 for speedup-vs-serial), and the notes
    record the tile/fallback counters so scaling anomalies can be
    diagnosed.  This is the series the cost model is cross-validated
    against.
    """
    result = ExperimentResult(
        experiment=f"measured_openmp_{benchmark}",
        description=(
            f"Measured tiled-parallel scaling of lowered {benchmark} "
            f"(n={n}, schedule={schedule})"
        ),
        columns=("benchmark", "threads", "seconds", "mcells_per_s",
                 "speedup_vs_first"),
    )
    if benchmark == "gauss_seidel":
        source = gauss_seidel.generate_source(n, niters=1)
        entry = "gauss_seidel"
        make_args = lambda: [gauss_seidel.initial_condition(n)]
        cells = (n - 2) ** 3
    else:
        source = pw_advection.generate_source(n)
        entry = "pw_advection"
        make_args = lambda: [f.copy(order="F") for f in pw_advection.initial_fields(n)]
        cells = (n - 1) ** 3
    compiled = _SESSION.compile(source).lower(
        "openmp", lower_to_scf=True, execution_mode="vectorize",
        schedule=schedule, chunk_size=chunk_size,
    )
    baseline = None
    for threads in thread_counts:
        interp = compiled.interpreter(threads=threads)
        args = make_args()
        interp.call(entry, *args)  # warm-up: compiles + binds the kernels
        best = float("inf")
        for _ in range(repeats):
            args = make_args()
            start = time.perf_counter()
            interp.call(entry, *args)
            best = min(best, time.perf_counter() - start)
        if baseline is None:
            baseline = best
        result.add(benchmark, threads, best, cells / best / 1e6, baseline / best)
        result.notes[f"threads={threads}"] = {
            "parallel_sweeps": interp.stats["parallel_sweeps"],
            "parallel_tiles": interp.stats["parallel_tiles"],
            "parallel_fallbacks": interp.stats["parallel_fallbacks"],
        }
    return result


def _openmp_figure(benchmark: str, figure: str,
                   measure_threads: Sequence[int] = (),
                   measure_n: int = 64) -> ExperimentResult:
    kernel = _KERNELS[benchmark]
    result = ExperimentResult(
        experiment=figure,
        description=f"OpenMP scaling of {benchmark} at 2.1 billion cells",
        columns=("benchmark", "threads", "compiler", "mcells_per_s"),
    )
    model = CPUCostModel()
    cells = _PAPER_SIZES["1290^3 (2.1B)"]
    for threads in _THREAD_COUNTS:
        for profile in (CRAY_PROFILE, FLANG_PROFILE, STENCIL_PROFILE):
            result.add(
                benchmark, threads, profile.name,
                model.throughput_mcells(kernel, profile, cells, threads=threads),
            )
    if measure_threads:
        # Real tiled-parallel runs on a reduced grid, reported next to the
        # model series (labelled "stencil-measured"; absolute numbers are not
        # comparable to the paper-scale model rows, the *scaling shape* is).
        measured = measured_openmp_scaling(
            benchmark, thread_counts=tuple(measure_threads), n=measure_n
        )
        for _, threads, seconds, mcells, speedup in measured.rows:
            result.add(benchmark, threads, "stencil-measured", mcells)
        result.notes["measured"] = {
            "grid_n": measure_n,
            "speedups": {row[1]: row[4] for row in measured.rows},
            **measured.notes,
        }
    return result


def figure3_openmp_gauss_seidel(
    measure_threads: Sequence[int] = (), measure_n: int = 64
) -> ExperimentResult:
    """Multithreaded Gauss-Seidel (Figure 3).  ``measure_threads`` adds
    measured tiled-parallel rows next to the model-predicted series."""
    return _openmp_figure("gauss_seidel", "figure3", measure_threads, measure_n)


def figure4_openmp_pw_advection(
    measure_threads: Sequence[int] = (), measure_n: int = 64
) -> ExperimentResult:
    """Multithreaded PW advection (Figure 4): stencil overtakes at 64/128
    threads.  ``measure_threads`` adds measured tiled-parallel rows."""
    return _openmp_figure("pw_advection", "figure4", measure_threads, measure_n)


# ---------------------------------------------------------------------------
# Figure 5: GPU
# ---------------------------------------------------------------------------


def measured_gpu_scaling(
    strategies: Sequence[str] = ("optimised", "host_register"),
    n: int = 24,
    niters: int = 2,
    repeats: int = 3,
    streams: int = 2,
) -> ExperimentResult:
    """*Measured* throughput of the vectorized GPU execution engine.

    Unlike the analytic Figure 5 series this actually executes the fully
    lowered GPU target: the module is compiled with ``lower_to_scf=True`` —
    tiling, GPU mapping and kernel outlining, exactly the paper's Listing 4
    pipeline — and every ``gpu.launch_func`` runs through
    :class:`repro.runtime.GpuKernelEngine`'s batched whole-lattice NumPy
    kernels (best-of-``repeats`` wall clock) against the simulated V100's
    stream timeline.  Every row is validated against the global NumPy
    reference to < 1e-12 (a violation raises, so the scaling series doubles
    as a functional gate), and the notes record the device summary — PCIe
    traffic, per-kernel invocation counts, modelled stream span/overlap — per
    strategy.
    """
    result = ExperimentResult(
        experiment="measured_gpu",
        description=(
            f"Measured vectorized GPU engine throughput of lowered "
            f"Gauss-Seidel (n={n}, {niters} sweeps, {streams} streams)"
        ),
        columns=("strategy", "seconds", "mcells_per_s", "launches",
                 "vectorized_launches", "max_error"),
    )
    source = gauss_seidel.generate_source(n, niters=niters)
    init = gauss_seidel.initial_condition(n)
    reference = gauss_seidel.reference_jacobi(init, niters)
    cells = (n - 2) ** 3 * niters
    for strategy in strategies:
        compiled = _SESSION.compile(source).lower(
            "gpu", data_strategy=strategy, lower_to_scf=True,
            execution_mode="vectorize", streams=streams,
        )
        # One interpreter per strategy: the warm-up call compiles and binds
        # the launch kernels, so the timed repeats measure the engine, not
        # interpreter construction or codegen.
        interp = compiled.interpreter()
        interp.call("gauss_seidel", init.copy(order="F"))
        best_seconds = float("inf")
        best_work = None
        for _ in range(repeats):
            work = init.copy(order="F")
            start = time.perf_counter()
            interp.call("gauss_seidel", work)
            seconds = time.perf_counter() - start
            if seconds < best_seconds:
                best_seconds, best_work = seconds, work
        work = best_work
        error = float(np.abs(work - reference).max())
        if error >= 1e-12:
            raise ValueError(
                f"measured GPU run ({strategy}) diverged from the NumPy "
                f"reference: max error {error:g}"
            )
        result.add(strategy, best_seconds, cells / best_seconds / 1e6,
                   interp.stats["kernel_launches"],
                   interp.stats["gpu_launches_vectorized"], error)
        result.notes[strategy] = {
            "gpu_seconds": interp.stats["gpu_seconds"],
            "transfer_seconds": interp.stats["transfer_seconds"],
            "gpu_launch_fallbacks": interp.stats["gpu_launch_fallbacks"],
            **interp.gpu.summary(),
        }
    return result


def figure5_gpu(validate: bool = True,
                measure: Optional[bool] = None) -> ExperimentResult:
    """V100 throughput for both benchmarks and three data strategies (Figure 5).

    ``measure`` (default: follows ``validate``) adds a *measured* series —
    the vectorized GPU engine executing the fully lowered Gauss-Seidel per
    data strategy, labelled ``measured_<strategy>`` — next to the cost-model
    rows, every measured row validated < 1e-12 against the NumPy reference.
    """
    result = ExperimentResult(
        experiment="figure5",
        description="GPU performance: OpenACC/Nvidia vs stencil initial vs optimised data",
        columns=("benchmark", "problem_size", "strategy", "mcells_per_s"),
    )
    model = GPUCostModel()
    for bench_name, kernel in _KERNELS.items():
        for size_label, cells in _GPU_SIZES.items():
            for strategy in (STRATEGY_OPENACC_UNIFIED, STRATEGY_HOST_REGISTER,
                             STRATEGY_OPTIMISED):
                result.add(
                    bench_name, size_label, strategy.name,
                    model.throughput_mcells(kernel, strategy, cells),
                )
    if measure is None:
        measure = validate
    if measure:
        # Real vectorized-engine runs on a reduced grid (absolute numbers are
        # not comparable to the paper-scale model rows; the strategy ordering
        # and the < 1e-12 validation are what matter).
        measured = measured_gpu_scaling()
        for strategy, seconds, mcells, *_ in measured.rows:
            result.add("gauss_seidel", "24^3 (measured)",
                       f"measured_{strategy}", mcells)
        result.notes["measured"] = {
            "max_error": max(row[5] for row in measured.rows),
            **measured.notes,
        }
    if validate:
        result.notes["transfer_validation"] = gpu_data_ablation(n=10, niters=3).notes
    return result


def gpu_data_ablation(n: int = 10, niters: int = 3) -> ExperimentResult:
    """Ablation E8: run both GPU data strategies for real on a small grid and
    compare the PCIe traffic the simulated device records."""
    result = ExperimentResult(
        experiment="gpu_data_ablation",
        description="Observed PCIe traffic per data-management strategy",
        columns=("strategy", "kernel_launches", "h2d_bytes", "d2h_bytes", "on_demand_bytes"),
    )
    source = gauss_seidel.generate_source(n, niters=niters)
    for strategy in ("optimised", "host_register"):
        compiled = _SESSION.compile(source).lower("gpu", data_strategy=strategy)
        gpu_device = SimulatedGPU()
        interp = compiled.interpreter(gpu=gpu_device)
        data = gauss_seidel.initial_condition(n)
        interp.call("gauss_seidel", data.copy(order="F"))
        summary = gpu_device.summary()
        result.add(strategy, summary["launches"], summary["h2d_bytes"],
                   summary["d2h_bytes"], summary["on_demand_bytes"])
        result.notes[strategy] = summary
    return result


# ---------------------------------------------------------------------------
# Figure 6: distributed memory
# ---------------------------------------------------------------------------


_NODE_COUNTS = (1, 2, 4, 8, 16, 32, 64)


#: Simulated-rank process grids for the measured distributed series (1→8
#: vectorized in-process ranks).
_MEASURED_RANK_GRIDS = ((1, 1), (2, 1), (2, 2), (4, 2))


def _distributed_plan(grid: Tuple[int, int], global_shape: Tuple[int, int, int]):
    """A vectorized multi-rank execution plan for the Gauss-Seidel kernel.

    The base program is generated at rank 0's padded local shape for this
    (grid, global shape), so the base compile *is* one of the per-shape
    artifacts the run needs — the ``source_builder`` then only compiles the
    remaining distinct shapes (none at all when the domain divides evenly).
    """
    from ..runtime.mpi_runtime import CartesianDecomposition

    decomposition = CartesianDecomposition(
        tuple(global_shape), tuple(grid), tuple(range(len(grid)))
    )
    rank0_padded = tuple(ub - lb + 2 for lb, ub in decomposition.local_bounds(0))
    program = _SESSION.compile(
        gauss_seidel.generate_source_shaped(rank0_padded, niters=1)
    )
    return program.lower("dmp", grid=grid, execution_mode="vectorize").distribute(
        source_builder=gauss_seidel.generate_source_shaped)


def measured_distributed_scaling(
    rank_grids: Sequence[Tuple[int, int]] = _MEASURED_RANK_GRIDS,
    n: int = 24,
    niters: int = 2,
    repeats: int = 2,
) -> ExperimentResult:
    """*Measured* multi-rank throughput of the DMP/MPI-lowered target.

    Unlike the analytic Figure 6 series this actually executes the lowered
    modules: one vectorized interpreter per simulated rank runs concurrently
    on the :class:`repro.runtime.DistributedExecutor` rank pool with real
    halo exchanges through the simulated communicator (best-of-``repeats``
    wall clock).  Every row carries the max interior error against the
    global Jacobi reference, so the scaling series doubles as a functional
    validation of the halo exchange at every rank count.
    """
    result = ExperimentResult(
        experiment="measured_distributed",
        description=(
            f"Measured multi-rank scaling of distributed Gauss-Seidel "
            f"(n={n}, {niters} sweeps, vectorized ranks)"
        ),
        columns=("ranks", "grid", "seconds", "mcells_per_s",
                 "speedup_vs_first", "max_interior_error"),
    )
    rng = np.random.default_rng(3)
    global_field = np.asfortranarray(rng.random((n, n, n)))
    reference = gauss_seidel.reference_jacobi(global_field, niters)
    cells = n**3 * niters
    baseline = None
    for grid in rank_grids:
        plan = _distributed_plan(tuple(grid), (n, n, n))
        plan.run(global_field, iterations=1)  # warm-up: compile + bind kernels
        best = None
        for _ in range(repeats):
            run = plan.run(global_field, iterations=niters)
            if best is None or run.seconds < best.seconds:
                best = run
        error = best.max_interior_error(reference, margin=niters)
        if baseline is None:
            baseline = best.seconds
        result.add(best.ranks, "x".join(map(str, grid)), best.seconds,
                   cells / best.seconds / 1e6, baseline / best.seconds, error)
        result.notes[f"ranks={best.ranks}"] = {
            "messages": best.messages,
            "bytes": best.bytes,
            "halo_seconds": sum(s.halo_seconds for s in best.rank_stats),
            "kernel_seconds": sum(s.kernel_seconds for s in best.rank_stats),
        }
    return result


def figure6_distributed(validate: bool = True,
                        measure_grids: Sequence[Tuple[int, int]] = _MEASURED_RANK_GRIDS,
                        measure_n: int = 24) -> ExperimentResult:
    """Distributed-memory Gauss-Seidel scaling on up to 64 nodes (Figure 6).

    The paper-scale series comes from the cost model; ``measure_grids`` adds
    a *measured* multi-rank series (vectorized in-process ranks with real
    halo exchanges, labelled ``stencil_measured``) next to it, each row
    validated against the global reference.
    """
    result = ExperimentResult(
        experiment="figure6",
        description="Distributed Gauss-Seidel, hand-parallelised vs auto (DMP/MPI)",
        columns=("nodes", "ranks", "variant", "mcells_per_s"),
    )
    model = DistributedCostModel()
    global_cells = 17e9
    for nodes in _NODE_COUNTS:
        ranks = nodes * 128
        hand = model.throughput_mcells(GAUSS_SEIDEL_KERNEL, CRAY_PROFILE,
                                       global_cells, ranks)
        auto = model.throughput_mcells(GAUSS_SEIDEL_KERNEL, STENCIL_PROFILE,
                                       global_cells, ranks, comm_efficiency=0.35)
        result.add(nodes, ranks, "hand_parallelised", hand)
        result.add(nodes, ranks, "stencil_auto_parallelised", auto)
    if measure_grids:
        # Real in-process multi-rank runs on a reduced grid (absolute numbers
        # are not comparable to the paper-scale model rows; the scaling shape
        # and the interior error are what matter).
        measured = measured_distributed_scaling(tuple(measure_grids),
                                                n=measure_n)
        for ranks, grid, seconds, mcells, speedup, error in measured.rows:
            result.add("sim", ranks, "stencil_measured", mcells)
        result.notes["measured"] = {
            "grid_n": measure_n,
            "max_interior_error": max(row[5] for row in measured.rows),
            "speedups": {row[0]: row[4] for row in measured.rows},
            **measured.notes,
        }
    if validate:
        result.notes["functional_validation"] = distributed_functional_check()
    return result


def distributed_functional_check(n_local: int = 8, ranks: Tuple[int, int] = (2, 2),
                                 niters: int = 2) -> Dict[str, float]:
    """Run the DMP/MPI-lowered Gauss-Seidel on a simulated communicator and
    compare against the single-process Jacobi reference on the global domain.

    Now a thin wrapper over the :class:`repro.api.DistributedProgram` flow:
    the executor owns scatter (with physical ghost-plane fill), concurrent
    vectorized rank execution, halo exchange and gather.  The comparison
    region excludes cells within ``niters`` of the global boundary — the
    local kernels update every owned cell (including global-boundary ones)
    whereas the reference keeps boundaries fixed, and that difference
    propagates inwards one cell per sweep; everything further in is
    identical whenever the halo exchanges are correct.
    """
    grid = tuple(ranks)
    global_shape = (n_local * grid[0], n_local * grid[1], n_local)
    rng = np.random.default_rng(3)
    global_field = np.asfortranarray(rng.random(global_shape))
    reference = gauss_seidel.reference_jacobi(global_field, niters)

    plan = _distributed_plan(grid, global_shape)
    run = plan.run(global_field, iterations=niters)

    margin = niters
    compared = 1
    for extent in global_shape:
        compared *= max(0, extent - 2 * margin)
    return {
        "max_interior_error": run.max_interior_error(reference, margin),
        "ranks": run.ranks,
        "compared_cells": compared,
        "messages": run.messages,
        "bytes": run.bytes,
        "halo_seconds": sum(s.halo_seconds for s in run.rank_stats),
        "kernel_seconds": sum(s.kernel_seconds for s in run.rank_stats),
    }


# ---------------------------------------------------------------------------
# Ablation E9: stencil fusion on/off for PW advection
# ---------------------------------------------------------------------------


def fusion_ablation(n: int = 10) -> ExperimentResult:
    """Compare the stencil module with and without fusion (E9)."""
    result = ExperimentResult(
        experiment="fusion_ablation",
        description="PW advection with and without stencil fusion",
        columns=("variant", "stencil_applies", "modelled_mcells_per_s"),
    )
    model = CPUCostModel()
    source = pw_advection.generate_source(n)
    for fuse in (True, False):
        compiled = _SESSION.compile(source).lower("cpu", fuse_stencils=fuse)
        applies = sum(
            1 for op in compiled.stencil_module.walk() if op.name == "stencil.apply"
        )
        kernel = PW_ADVECTION_KERNEL
        if fuse:
            mcells = model.throughput_mcells(kernel, STENCIL_PROFILE, 512**3, 128)
        else:
            unfused = STENCIL_PROFILE
            # Without fusion the stencil flow pays the same three-pass traffic
            # as the separately compiled loops.
            from ..runtime.cost_model import CompilerProfile

            unfused = CompilerProfile(
                name="cray", flop_efficiency=STENCIL_PROFILE.flop_efficiency,
                bandwidth_efficiency=STENCIL_PROFILE.bandwidth_efficiency,
                ops_per_access=STENCIL_PROFILE.ops_per_access,
            )
            mcells = model.throughput_mcells(kernel, unfused, 512**3, 128)
        result.add("fused" if fuse else "unfused", applies, mcells)
    return result


ALL_EXPERIMENTS = {
    "figure2": figure2_single_core,
    "figure3": figure3_openmp_gauss_seidel,
    "figure4": figure4_openmp_pw_advection,
    # measured_gpu_scaling is not registered standalone: figure5 reports it
    # (like measured_distributed_scaling inside figure6), and a registry
    # entry would make run_all pay the wall-clock benchmark twice.
    "figure5": figure5_gpu,
    "figure6": figure6_distributed,
    "gpu_data_ablation": gpu_data_ablation,
    "fusion_ablation": fusion_ablation,
}


__all__ = [
    "ExperimentResult",
    "harness_session",
    "figure2_single_core",
    "figure3_openmp_gauss_seidel",
    "figure4_openmp_pw_advection",
    "measured_openmp_scaling",
    "figure5_gpu",
    "measured_gpu_scaling",
    "figure6_distributed",
    "measured_distributed_scaling",
    "gpu_data_ablation",
    "fusion_ablation",
    "distributed_functional_check",
    "ALL_EXPERIMENTS",
]
