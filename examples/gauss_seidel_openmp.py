#!/usr/bin/env python3
"""Gauss-Seidel benchmark: Flang-only vs stencil flow, plus automatic OpenMP.

Compiles the same unmodified serial Fortran three ways (plain FIR, the stencil
flow, and the stencil flow lowered through scf.parallel -> OpenMP), checks all
of them numerically, and prints the measured throughput of the lowered sweep
at 1, 2 and 4 threads (the paper's Figure 3, at a reduced grid size).
"""

import time

import numpy as np

import repro
from repro.apps import gauss_seidel
from repro.harness import format_table, measured_openmp_scaling

N = 32
NITERS = 2


def main() -> None:
    source = gauss_seidel.generate_source(N, NITERS)
    initial = gauss_seidel.initial_condition(N)
    program = repro.compile(source)

    # --- Flang only (plain FIR loop nests, true Gauss-Seidel sweeps) --------
    flang_only = program.lower("flang-only")
    flang_data = initial.copy(order="F")
    start = time.perf_counter()
    flang_only.run("gauss_seidel", flang_data)
    flang_time = time.perf_counter() - start

    # --- Stencil flow (discovery + extraction, vectorised execution) --------
    stencil_flow = program.lower("cpu")
    stencil_data = initial.copy(order="F")
    start = time.perf_counter()
    stencil_flow.run("gauss_seidel", stencil_data)
    stencil_time = time.perf_counter() - start

    print(f"Flang-only execution : {flang_time * 1e3:8.1f} ms")
    print(f"Stencil flow         : {stencil_time * 1e3:8.1f} ms "
          f"({flang_time / stencil_time:.1f}x faster in this reproduction)")
    print("residual (stencil)   :", gauss_seidel.residual(stencil_data))

    # --- Automatic OpenMP parallelisation (no source changes) --------------
    # The omp.wsloop sweeps execute for real on a 4-worker thread pool: each
    # compiled kernel sweep is tiled along its outermost parallel dimension.
    openmp = program.lower("openmp").vectorize(threads=4)
    omp_data = initial.copy(order="F")
    interp = openmp.interpreter()
    interp.call("gauss_seidel", omp_data)
    assert np.allclose(omp_data, stencil_data)
    print("OpenMP-lowered module executed; parallel regions:",
          interp.stats["omp_regions"],
          "| tiled sweeps:", interp.stats["parallel_sweeps"],
          "| tiles:", interp.stats["parallel_tiles"])

    # --- Figure 3: measured thread scaling ----------------------------------
    print()
    print(format_table(measured_openmp_scaling("gauss_seidel")))


if __name__ == "__main__":
    main()
