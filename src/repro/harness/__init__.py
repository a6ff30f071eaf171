"""Experiment harness: one measured driver per paper figure plus ablations."""

from .experiments import (
    ALL_EXPERIMENTS,
    fusion_ablation,
    gpu_data_ablation,
    harness_session,
    measured_distributed_scaling,
    measured_gpu_scaling,
    measured_openmp_scaling,
    measured_single_core,
)
from .reporting import (
    ExperimentResult,
    format_table,
    fuzz_summary_table,
    kernel_stats_table,
    recovery_report_table,
    run_all,
    service_metrics_table,
)

__all__ = [
    "ExperimentResult",
    "harness_session",
    "measured_single_core",
    "measured_openmp_scaling",
    "measured_gpu_scaling",
    "measured_distributed_scaling",
    "gpu_data_ablation",
    "fusion_ablation",
    "ALL_EXPERIMENTS",
    "format_table",
    "fuzz_summary_table",
    "kernel_stats_table",
    "recovery_report_table",
    "service_metrics_table",
    "run_all",
]
