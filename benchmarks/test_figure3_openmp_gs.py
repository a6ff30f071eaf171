"""Figure 3 — multithreaded (OpenMP) Gauss-Seidel at 2.1 billion cells.

The model-regenerated figure plus real tiled parallel execution of the
lowered ``omp.wsloop`` nest (PR 2): schedule-clause coverage, crosscheck at
``threads > 1``, and measured rows next to the model series.
"""

import time

import numpy as np
import pytest

from repro.apps import gauss_seidel
import repro
from repro.harness import figure3_openmp_gauss_seidel, format_table


def test_openmp_lowered_execution(benchmark):
    n = 24
    result = repro.compile(
        gauss_seidel.generate_source(n, niters=1)
    ).lower("openmp", lower_to_scf=True)
    init = gauss_seidel.initial_condition(n)
    interp = result.interpreter()

    def run():
        interp.call("gauss_seidel", init.copy(order="F"))

    benchmark(run)
    assert interp.stats["omp_regions"] >= 1


@pytest.mark.parametrize("schedule,chunk", [
    ("static", None), ("dynamic", 4), ("guided", 2),
])
def test_crosscheck_passes_with_threads_gs(schedule, chunk):
    """Tiled parallel sweeps of the lowered Gauss-Seidel replay through the
    scalar oracle at threads=4 under every schedule kind."""
    n = 18
    result = repro.compile(
        gauss_seidel.generate_source(n, niters=2)
    ).lower("openmp", lower_to_scf=True, schedule=schedule, chunk_size=chunk)
    u = gauss_seidel.initial_condition(n)
    interp = result.interpreter(execution_mode="crosscheck", threads=4)
    interp.call("gauss_seidel", u)
    assert interp.stats["parallel_sweeps"] >= 1
    reference = gauss_seidel.reference_jacobi(gauss_seidel.initial_condition(n), 2)
    assert np.allclose(u, reference)


def test_two_threads_run_the_default_plan_too():
    """A thread count shapes *who* runs the boxes, not *how big* they are:
    at n=96 the thread slabs are cache-blocked like the single-thread sweep,
    so asking for two threads must not cost more than the pool's dispatch
    (it cost 1.5-1.6x while thread tiles cut the unit-stride axis and
    switched the cache boxes off)."""
    n, niters = 96, 10
    handle = repro.Session().compile(
        gauss_seidel.generate_source(n, niters=niters)
    ).lower("openmp", lower_to_scf=True)
    reference = gauss_seidel.reference_jacobi(
        gauss_seidel.initial_condition(n), niters)

    def best_of(threads, repeats=5):
        interp = handle.interpreter(execution_mode="vectorize", threads=threads)
        best = float("inf")
        for _ in range(repeats + 1):       # the first call warms the kernel
            u = gauss_seidel.initial_condition(n)
            start = time.perf_counter()
            interp.call("gauss_seidel", u)
            best = min(best, time.perf_counter() - start)
        assert u.tobytes() == reference.tobytes()
        return best, interp.stats

    one_s, _ = best_of(1)
    two_s, stats = best_of(2)
    assert stats["parallel_tiles"] > 0 and stats["cache_tiles"] > 0
    assert two_s <= one_s * 1.35, (
        f"lowered gauss_seidel n={n}: threads=2 {two_s * 1e3:.1f} ms vs "
        f"threads=1 {one_s * 1e3:.1f} ms")


def test_figure3_table_regeneration(benchmark):
    result = benchmark(figure3_openmp_gauss_seidel)
    print()
    print(format_table(result))
    by_threads = {}
    for _, threads, compiler, mcells in result.rows:
        by_threads.setdefault(threads, {})[compiler] = mcells
    for threads, values in by_threads.items():
        assert values["cray"] > values["stencil"] > values["flang"], threads
    # Scaling: every flow speeds up from 1 to 128 threads.
    assert by_threads[128]["stencil"] > 5 * by_threads[1]["stencil"]


def test_figure3_measured_series(benchmark):
    counts = (1, 2)
    result = benchmark(figure3_openmp_gauss_seidel, counts, 40)
    print()
    print(format_table(result))
    measured = [row for row in result.rows if row[2] == "stencil-measured"]
    assert [row[1] for row in measured] == list(counts)
    assert all(row[3] > 0 for row in measured)
