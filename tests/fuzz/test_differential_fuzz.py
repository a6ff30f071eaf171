"""The differential smoke: N seeds through every backend x execution mode,
bitwise-compared against the scalar-interpreter oracle.

Seed count comes from ``--fuzz-seeds`` (default 10) so tier-1 stays fast
while a deep run is one flag away.  Any divergence fails the test with the
replay command in the message.
"""

from repro.fuzz import DifferentialRunner, Farm, default_matrix, generate_spec
from repro.harness import fuzz_summary_table


def test_differential_fuzz_zero_divergences(fuzz_seeds):
    farm = Farm(DifferentialRunner(), count=fuzz_seeds, start=0)
    report = farm.run()
    assert report.cases == fuzz_seeds
    details = "\n".join(d.describe() for d in report.divergences)
    assert report.ok, f"differential divergences:\n{details}"
    # Every registered stencil backend must have actually run.
    assert {"cpu", "openmp", "gpu"} <= set(report.per_backend)
    # The scalar paths never fall back — fallbacks mean silent coverage loss.
    for backend, counters in report.per_backend.items():
        assert counters["fallbacks"] == 0, (backend, counters)


def test_single_session_cache_is_exercised():
    """One Session per farm run: runtime-mode derivations of a case hit the
    artifact cache, distinct kernels miss."""
    farm = Farm(DifferentialRunner(), count=4, start=0)
    report = farm.run()
    assert report.cache_stats["hits"] > 0
    assert report.cache_stats["misses"] > 0


def test_matrix_covers_modes_and_counts():
    spec = generate_spec(0)
    labels = {cfg.label for cfg in default_matrix(spec)}
    modes = {cfg.execution_mode for cfg in default_matrix(spec)}
    assert {"vectorize", "crosscheck"} <= modes
    assert any("openmp" in label for label in labels)
    assert any("gpu" in label for label in labels)
    threads = {cfg.threads for cfg in default_matrix(spec)}
    assert len(threads) > 1  # thread-count variation is part of the matrix


def test_distributed_specs_add_dmp_configs():
    for seed in range(40):
        spec = generate_spec(seed)
        if spec.style == "distributed":
            grids = {cfg.grid for cfg in default_matrix(spec)
                     if cfg.backend == "dmp"}
            assert {(1, 1), (2, 1), (2, 2)} <= grids
            return
    raise AssertionError("no distributed spec in the first 40 seeds")


def test_time_budget_stops_early():
    farm = Farm(DifferentialRunner(), count=500, start=0, time_budget=0.0)
    report = farm.run()
    assert report.budget_exhausted
    assert report.cases < 500
    assert report.seeds_skipped == 500 - report.cases


def test_fuzz_summary_table_renders(fuzz_seeds):
    report = Farm(DifferentialRunner(), count=min(3, fuzz_seeds)).run()
    table = fuzz_summary_table(report)
    assert "fuzz_summary" in table
    assert "divergences" in table
    assert "cpu" in table
