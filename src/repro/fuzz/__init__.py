"""Differential fuzz farm: generative kernels, every backend, one oracle.

One :class:`Farm` drives seeds through one of two scenarios — the
differential matrix and chaos mode — and merges every case into one
:class:`Report`.  The layers:

* :mod:`repro.fuzz.generator` — seeded, replayable generation of
  *executable* stencil kernels as structured :class:`KernelSpec` trees
  (rank, nest depth, offsets, intrinsics, sweeps, grid shapes), rendered
  to Fortran on demand;
* :mod:`repro.fuzz.runner` — the differential matrix: each spec compiled
  through every registered backend via the fluent ``Program`` API, run
  across ``interpret``/``vectorize``/``crosscheck`` modes and thread /
  rank counts, all outputs compared bitwise against the scalar
  interpreter oracle; home of :class:`Farm`, :class:`Report`,
  :class:`CaseResult` and :class:`Divergence`;
* :mod:`repro.fuzz.minimizer` — deterministic delta-debugging of any
  divergent spec while the divergence still reproduces;
* :mod:`repro.fuzz.corpus` — the persisted ``fuzz/corpus/`` of minimized
  regression kernels that tier-1 replays;
* :mod:`repro.fuzz.chaos` — chaos mode: each seed runs fault-free, then
  again under a seeded :class:`repro.resilience.FaultPlan`, and the
  recovered outputs must be bitwise identical.

CLI: ``python -m repro.fuzz --seeds N [--time-budget S] [--chaos]``.
"""

from .chaos import ChaosRunner
from .corpus import (
    CorpusEntry,
    DEFAULT_CORPUS_DIR,
    entry_from_divergence,
    load_corpus,
    minimize_and_save,
    replay_entry,
    save_entry,
)
from .generator import (
    DEFAULT_CONFIG,
    GeneratorConfig,
    KernelSpec,
    generate_spec,
)
from .minimizer import MinimizationResult, minimize
from .runner import (
    BackendConfig,
    CaseResult,
    DifferentialRunner,
    Divergence,
    Farm,
    Report,
    default_matrix,
)

__all__ = [
    "BackendConfig",
    "CaseResult",
    "ChaosRunner",
    "CorpusEntry",
    "DEFAULT_CONFIG",
    "DEFAULT_CORPUS_DIR",
    "DifferentialRunner",
    "Divergence",
    "Farm",
    "GeneratorConfig",
    "KernelSpec",
    "MinimizationResult",
    "Report",
    "default_matrix",
    "entry_from_divergence",
    "generate_spec",
    "load_corpus",
    "minimize",
    "minimize_and_save",
    "replay_entry",
    "save_entry",
]
