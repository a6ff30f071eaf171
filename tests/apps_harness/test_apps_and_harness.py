"""Tests for the benchmark applications and the experiment harness."""

import numpy as np
import pytest

from repro.apps import gauss_seidel, pw_advection
from repro.harness import (
    ALL_EXPERIMENTS,
    ExperimentResult,
    format_table,
    fusion_ablation,
    gpu_data_ablation,
    harness_session,
    measured_openmp_scaling,
    measured_single_core,
    reporting,
    run_all,
)


class TestApps:
    def test_gauss_seidel_problem_metadata(self):
        problem = gauss_seidel.GaussSeidelProblem(n=64, niters=10)
        assert problem.cells == 64**3
        assert problem.interior_cells == 62**3
        assert problem.flops_per_sweep == 62**3 * 6

    def test_gauss_seidel_source_parametrised(self):
        source = gauss_seidel.generate_source(123, niters=7, name="solve")
        assert "n = 123" in source and "niters = 7" in source and "subroutine solve" in source

    def test_jacobi_reference_reduces_residual(self):
        u0 = gauss_seidel.initial_condition(12)
        u1 = gauss_seidel.reference_jacobi(u0, 50)
        assert gauss_seidel.residual(u1) < gauss_seidel.residual(u0)

    def test_references_preserve_boundaries(self):
        u0 = gauss_seidel.initial_condition(10)
        u1 = gauss_seidel.reference_jacobi(u0, 3)
        assert np.array_equal(u1[0], u0[0]) and np.array_equal(u1[-1], u0[-1])

    def test_pw_reference_zero_for_uniform_wind(self):
        n = 8
        uniform = np.ones((n, n, n), order="F")
        su, sv, sw = pw_advection.reference(uniform, uniform, uniform)
        assert np.allclose(su, 0.0) and np.allclose(sv, 0.0) and np.allclose(sw, 0.0)

    def test_pw_initial_fields_reproducible(self):
        a = pw_advection.initial_fields(6, seed=1)
        b = pw_advection.initial_fields(6, seed=1)
        assert np.array_equal(a[0], b[0])

    def test_flop_counts_match_paper(self):
        assert gauss_seidel.FLOPS_PER_CELL == 6
        assert pw_advection.FLOPS_PER_CELL == 63


class TestHarness:
    def test_single_core_flang_vs_stencil(self):
        result = measured_single_core()
        assert [row[:2] for row in result.rows] == [
            ("gauss_seidel", "flang-only"), ("gauss_seidel", "cpu"),
            ("pw_advection", "flang-only"), ("pw_advection", "cpu"),
        ]
        for _, compiler, _, _, speedup, error in result.rows:
            assert error < 1e-12
            if compiler == "cpu":
                assert speedup > 1.0

    @pytest.mark.parametrize("app", ["gauss_seidel", "pw_advection"])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_openmp_throughput_counts_the_interior_cells(self, app, threads):
        """Both apps update the (n-2)^3 cells of loops running 2..n-1, however
        many threads share them."""
        n = 12
        result = measured_openmp_scaling(app, (threads,), n=n, repeats=1)
        [(_, ran, seconds, mcells, _, error)] = result.rows
        assert ran == threads
        assert mcells * seconds * 1e6 == pytest.approx((n - 2) ** 3)
        assert error < 1e-12

    def test_gpu_data_ablation_traffic(self):
        result = gpu_data_ablation(n=8, niters=2)
        by_strategy = {row[0]: row for row in result.rows}
        assert by_strategy["host_register"][4] > 0            # on-demand traffic
        assert by_strategy["optimised"][4] == 0
        assert by_strategy["optimised"][2] < by_strategy["host_register"][2]
        assert all(row[5] < 1e-12 for row in result.rows)

    def test_fusion_ablation(self):
        result = fusion_ablation(n=8)
        by_variant = {row[0]: row for row in result.rows}
        assert by_variant["fused"][1] == 1
        assert by_variant["unfused"][1] == 3
        for _, _, seconds, error in result.rows:
            assert seconds > 0 and error < 1e-12

    def test_format_table_renders_all_rows(self):
        fig = fusion_ablation()
        text = format_table(fig)
        assert text.count("\n") >= len(fig.rows)
        assert "fusion_ablation" in text

    @pytest.mark.parametrize("value,text", [
        (0.000432, "0.000432"), (0.00612, "0.00612"), (0.5, "0.500"),
        (12.0, "12.0"), (99.94, "99.9"), (99.96, "100"), (1234.5, "1,234"),
        (-0.00612, "-0.00612"), (-99.96, "-100"), (-1234.5, "-1,234"),
        (7, "7"), ("cpu", "cpu"),
    ])
    def test_format_table_keeps_three_significant_digits(self, value, text):
        result = ExperimentResult("timings", "sub-millisecond", ("label", "value"))
        result.add("row", value)
        assert format_table(result).splitlines()[-1].split(" | ")[1].rstrip() == text

    @pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
    def test_a_run_off_the_reference_raises(self, name, monkeypatch):
        """No driver reports a row whose run missed its reference by 1e-9."""
        def shifted(exact):
            def reference(*args):
                out = exact(*args)
                if isinstance(out, np.ndarray):
                    return out + 1e-9
                return [field + 1e-9 for field in out]
            return reference

        for module, attr in ((gauss_seidel, "reference_jacobi"),
                             (gauss_seidel, "reference_gauss_seidel"),
                             (pw_advection, "reference")):
            monkeypatch.setattr(module, attr, shifted(getattr(module, attr)))
        with pytest.raises(ValueError, match="diverged from the NumPy reference"):
            ALL_EXPERIMENTS[name]()

    def test_every_figure_is_measured_and_validated(self, monkeypatch):
        """run_all() runs every registered driver for real: each table holds
        the series its paper figure plots, its rows carry the deviation of an
        executed run from the NumPy reference, and the shared session serves
        at least one compile from its cache."""
        series = {
            "figure2": ("compiler", ["flang-only", "cpu"] * 2),
            "figure3": ("threads", [1, 2, 4]),
            "figure4": ("threads", [1, 2, 4]),
            "figure5": ("strategy", ["optimised", "host_register"]),
            "figure6": ("ranks", [1, 2, 4, 8]),
            "gpu_data_ablation": ("strategy", ["optimised", "host_register"]),
            "fusion_ablation": ("variant", ["fused", "unfused"]),
        }
        tables = []
        render = reporting.format_table

        def spy(result):
            tables.append(result)
            return render(result)

        monkeypatch.setattr(reporting, "format_table", spy)
        hits = harness_session().cache_stats["hits"]
        text = run_all()
        assert len(tables) == len(ALL_EXPERIMENTS)
        for name, result in zip(ALL_EXPERIMENTS, tables):
            column, plotted = series[name]
            assert [row[result.columns.index(column)]
                    for row in result.rows] == plotted, name
            column = result.columns.index("max_error")
            errors = [row[column] for row in result.rows]
            assert errors and max(errors) < 1e-12, name
        assert harness_session().cache_stats["hits"] > hits
        assert text.endswith("artifacts")

    def test_experiment_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "figure2", "figure3", "figure4", "figure5", "figure6",
            "gpu_data_ablation", "fusion_ablation",
        }
