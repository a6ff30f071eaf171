"""The scalar interpreter is the oracle, and it runs alone.

``runtime/sweep.py`` holds everything that runs a sweep fast; the
interpreter builds its :class:`Sweep` only outside "interpret" mode.  Here
both apps run in "interpret" mode on every backend under a profiler that
watches every thread: no call may enter a function defined in
``repro.runtime.sweep``, and each interpreter's counters are the ones the
oracle reported before the fast path left ``interpreter.py`` (commit
3661737), as the scf lowering reported them there: cpu and dmp no longer
run at the stencil level.  The dmp runs are Gauss–Seidel's 2 x 2 ``distribute`` and PW on a
1 x 1 grid (``distribute`` scatters one global field).
"""

import sys
import threading

import numpy as np
import pytest

import repro
import repro.api
from repro.apps import gauss_seidel, pw_advection
from repro.runtime import CartesianDecomposition, sweep

N = 8

CONFIGS = {
    "flang-only": ("flang-only", {}),
    "cpu": ("cpu", {}),
    "openmp": ("openmp", {}),
    "gpu": ("gpu", {}),
    "dmp": ("dmp", {"grid": (2, 2)}),
}

#: (app, config) -> every non-zero, non-``*_seconds`` counter of each
#: interpreter the run built, as at commit 3661737 (cpu: its scf lowering's
#: there).  A dmp rank's halo-exchanged fields are written by the function,
#: so each of their snapshots names itself and copies.
_RANK = {"fir_loop_iterations": 2, "mpi_bytes": 2048, "mpi_messages": 4,
         "parallel_regions": 2, "snapshots_copied": 2}
PARENT_STATS = {
    ("pw", "flang-only"): [{"fir_loop_iterations": 775}],
    ("pw", "cpu"): [{"fir_loop_iterations": 1, "parallel_regions": 1,
                     "snapshots_elided": 3}],
    ("pw", "openmp"): [{"fir_loop_iterations": 1, "omp_regions": 1,
                        "snapshots_elided": 3}],
    ("pw", "gpu"): [{"fir_loop_iterations": 1, "kernel_launches": 1,
                     "snapshots_elided": 3}],
    ("pw", "dmp"): [{"fir_loop_iterations": 1, "parallel_regions": 1,
                     "snapshots_copied": 3}],
    ("gs", "flang-only"): [{"fir_loop_iterations": 518}],
    ("gs", "cpu"): [{"fir_loop_iterations": 2, "parallel_regions": 2,
                     "snapshots_copied": 2}],
    ("gs", "openmp"): [{"fir_loop_iterations": 2, "omp_regions": 2,
                        "snapshots_copied": 2}],
    ("gs", "gpu"): [{"fir_loop_iterations": 2, "kernel_launches": 2,
                     "snapshots_copied": 2}],
    ("gs", "dmp"): [_RANK] * 4,
}


def run(app, backend, options):
    session = repro.Session()
    if app == "pw":
        fields = [f.copy(order="F") for f in pw_advection.initial_fields(N)]
        source = pw_advection.generate_source(N)
        if backend == "dmp":
            handle = session.lower(source, backend, grid=(1, 1),
                                   execution_mode="interpret")
            handle.interpreter(decomposition=CartesianDecomposition(
                (N, N, N), (1, 1))).call("pw_advection", *fields)
        else:
            session.lower(source, backend, execution_mode="interpret",
                          **options).run("pw_advection", *fields)
    elif backend == "dmp":
        field = np.asfortranarray(np.random.default_rng(3).random((12, 12, 6)))
        session.lower(gauss_seidel.generate_source_shaped((N, N, N)), backend,
                      execution_mode="interpret", **options).distribute(
            source_builder=gauss_seidel.generate_source_shaped).run(
            field, iterations=2)
    else:
        session.lower(gauss_seidel.generate_source(N, niters=2), backend,
                      execution_mode="interpret", **options).run(
            "gauss_seidel", gauss_seidel.initial_condition(N))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("app", ["pw", "gs"])
def test_interpret_mode_never_enters_the_sweep_module(app, config, monkeypatch):
    built = []
    real = repro.api.CompiledProgram.interpreter

    def recording(self, **kwargs):
        built.append(real(self, **kwargs))
        return built[-1]

    monkeypatch.setattr(repro.api.CompiledProgram, "interpreter", recording)
    entered = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == sweep.__file__:
            entered.append(frame.f_code.co_name)  # list.append: thread-safe

    # Ranks run on threads the distributed run starts: they inherit it.
    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        run(app, *CONFIGS[config])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert entered == []
    assert all(interp.sweep is None for interp in built)
    stats = [{key: value for key, value in interp.stats.items()
              if value and not key.endswith("_seconds")} for interp in built]
    assert stats == PARENT_STATS[app, config]
