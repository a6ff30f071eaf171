"""An artifact is linked once: the function index, the kernel bindings and the
snapshot verdicts are derived on the first run and looked up afterwards.

The warm path is pinned as deterministic counts (Python ``call`` events,
``structural_hash`` calls, ``Operation.walk`` frames), not timings; the link
table's ownership, isolation and first-run races are pinned beside it.
"""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.ir.operation import Operation
from repro.runtime import Interpreter, SimulatedGPU
from repro.runtime import gpu_kernel_engine, kernel_compiler
from repro.runtime.kernel_compiler import KernelCompiler
from repro.serve import ArtifactStore, CompileService

N = 8
SWEEP_OPS = ("scf.parallel", "omp.wsloop", "gpu.launch_func")

#: name -> (app, niters, backend, lower options, Python calls the *second*
#: ``handle.run()`` made at the parent commit c942a8f, every non-zero
#: non-``*_seconds`` counter of ``interp.stats`` there, kernel lookups per
#: run there) — plus ``snapshots_elided``, counted since: every PW run reads
#: u, v and w where they are (a ``memref.snapshot`` each); and
#: ``snapshots_swapped``: Gauss–Seidel's snapshot of the field it writes
#: (a ``memref.snapshot``, one per sweep, once copied) swaps storage instead.
#: cpu's parent count is its scf lowering's, then ``lower_to_scf=True``.
CONFIGS = {
    "pw-cpu": (pw_advection, 1, "cpu", {}, 4344,
               {"parallel_regions": 1, "fir_loop_iterations": 1,
                "vectorized_sweeps": 1, "snapshots_elided": 3}, 1),
    "pw-gpu-scf": (pw_advection, 2, "gpu", {"lower_to_scf": True}, 6703,
                   {"fir_loop_iterations": 2, "kernel_launches": 2,
                    "gpu_launches_vectorized": 2, "snapshots_elided": 6}, 2),
    "gs-openmp-scf": (gauss_seidel, 3, "openmp",
                      {"lower_to_scf": True, "threads": 2}, 1913,
                      {"omp_regions": 3, "fir_loop_iterations": 3,
                       "vectorized_sweeps": 3, "parallel_sweeps": 3,
                       "parallel_tiles": 6, "snapshots_swapped": 3}, 3),
}


def source_of(app, niters, n=N):
    return app.generate_source(n, niters=niters)


def stage(app, n=N):
    if app is pw_advection:
        return [f.copy(order="F") for f in pw_advection.initial_fields(n)]
    return [gauss_seidel.initial_condition(n).copy(order="F")]


def outputs(app, args):
    return args[3:] if app is pw_advection else args


def expected(app, niters, n=N):
    args = stage(app, n)
    if app is pw_advection:
        return list(pw_advection.reference(*args[:3]))
    return [gauss_seidel.reference_jacobi(args[0], niters)]


def entry_of(app):
    return "pw_advection" if app is pw_advection else "gauss_seidel"


def run_kwargs(backend):
    return {"gpu": SimulatedGPU()} if backend == "gpu" else {}


def bitwise(got, want):
    return len(got) == len(want) and all(
        g.tobytes() == w.tobytes() for g, w in zip(got, want))


@pytest.fixture
def hash_spy(monkeypatch):
    """Counts ``structural_hash`` calls at every import site."""
    seen = []
    real = kernel_compiler.structural_hash

    def spy(op):
        seen.append(op)
        return real(op)

    for module in (kernel_compiler, gpu_kernel_engine):
        monkeypatch.setattr(module, "structural_hash", spy, raising=False)
    return seen


@pytest.fixture
def walk_spy(monkeypatch):
    """Counts ``Operation.walk`` calls (it recurses through the attribute)."""
    seen = []
    real = Operation.walk

    def spy(self, **kwargs):
        seen.append(self)
        return real(self, **kwargs)

    monkeypatch.setattr(Operation, "walk", spy)
    return seen


def sweep_ops(artifact):
    return [op for module in artifact.modules for op in module.walk()
            if op.name in SWEEP_OPS]


# ---------------------------------------------------------------------------
# The warm path as counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_second_and_third_run_only_look_up(name, mode, hash_spy, walk_spy,
                                           python_calls):
    app, niters, backend, options, parent_calls, parent_stats, lookups = \
        CONFIGS[name]
    source = source_of(app, niters)
    # Another artifact of the same source fills the structural cache, so
    # run 1 below differs from runs 2 and 3 by linking alone.
    repro.Session().lower(source, backend, execution_mode="vectorize",
                          **options).run(entry_of(app), *stage(app),
                                         **run_kwargs(backend))
    handle = repro.Session().lower(source, backend, execution_mode=mode,
                                   **options)
    want = expected(app, niters)
    seen = []
    for run in (1, 2, 3):
        args = stage(app)
        kwargs = run_kwargs(backend)
        del hash_spy[:], walk_spy[:]

        ran = []

        def one_run():
            ran.append(handle.run(entry_of(app), *args, **kwargs))

        # crosscheck's calls are the scalar replay's: not counted (or slowed).
        calls = python_calls(one_run) if mode == "vectorize" else one_run()
        interp, = ran
        assert bitwise(outputs(app, args), want)
        stats = {key: value for key, value in interp.stats.items()
                 if value and not key.endswith("_seconds")}
        kernels = {key: interp.kernels.stats[key]
                   for key in ("compiled", "cache_hits", "unsupported")}
        assert stats == parent_stats
        assert kernels == {"compiled": 0, "cache_hits": lookups,
                           "unsupported": 0}
        assert interp.kernels.stats["reasons"] == {}
        seen.append((calls, len(walk_spy), len(hash_spy)))
    assert seen[0][1] > 0 and seen[0][2] == 1     # run 1 links: walks, hashes
    for calls, walks, hashes in seen[1:]:
        assert (walks, hashes) == (0, 0)
        if mode == "vectorize":
            # The spy adds one call per walk: none on a warm run.  Three
            # sweeps on two threads: slab plan, pool hand-off and guards per
            # sweep are most of so small a run (913 calls).
            share = 0.50 if name == "gs-openmp-scf" else 0.35
            assert calls <= share * parent_calls
    assert seen[1] == seen[2]


def test_every_call_gets_its_own_interpreter_over_one_table():
    handle = repro.Session().lower(source_of(pw_advection, 1), "cpu",
                                   execution_mode="vectorize")
    a, b = handle.interpreter(), handle.interpreter()
    assert a is not b and a.stats is not b.stats
    assert a.kernels is not b.kernels and a.kernels.stats is not b.kernels.stats
    assert a.kernels._memo is b.kernels._memo is handle.artifact.linked.bindings
    assert a.sweep._verdicts is handle.artifact.linked.verdicts


@pytest.mark.parametrize("app,backend,options", [
    (app, backend, options)
    for app in (pw_advection, gauss_seidel)
    for backend, options in (
        ("cpu", {}), ("cpu", {"fuse_stencils": False}),
        ("openmp", {}), ("openmp", {"threads": 2}), ("gpu", {}),
        ("gpu", {"data_strategy": "host_register"}),
        ("dmp", {"grid": (2, 2)}), ("flang-only", {}))
    # distribute() scatters one global field: Gauss-Seidel's.
    if not (backend == "dmp" and app is pw_advection)
], ids=lambda value: getattr(value, "__name__", str(value)).split(".")[-1])
def test_no_sweep_of_either_app_reports_a_fallback_reason(
        app, backend, options, monkeypatch):
    built = []
    real = repro.api.CompiledProgram.interpreter

    def recording(self, **kwargs):
        built.append(real(self, **kwargs))
        return built[-1]

    monkeypatch.setattr(repro.api.CompiledProgram, "interpreter", recording)
    session = repro.Session()
    if backend == "dmp":
        field = np.asfortranarray(np.random.default_rng(3).random((12, 12, 6)))
        session.lower(gauss_seidel.generate_source_shaped((8, 8, 8)), backend,
                      execution_mode="vectorize", **options).distribute(
            source_builder=gauss_seidel.generate_source_shaped).run(
            field, iterations=2)
        assert len(built) == 4
    else:
        session.lower(source_of(app, 1), backend, execution_mode="vectorize",
                      **options).run(entry_of(app), *stage(app),
                                     **run_kwargs(backend))
    for interp in built:
        assert interp.kernels.stats["reasons"] == {}
        assert interp.kernels.stats["unsupported"] == 0


# ---------------------------------------------------------------------------
# Ownership and isolation
# ---------------------------------------------------------------------------


def lowered(session=None, **options):
    return (session or repro.Session()).lower(
        source_of(pw_advection, 1), "cpu", execution_mode="vectorize",
        **options)


def run_pw(handle):
    args = stage(pw_advection)
    handle.run("pw_advection", *args)
    return args[3:]


def test_two_sessions_share_the_kernel_but_no_binding():
    first, second = lowered(), lowered()
    run_pw(first), run_pw(second)
    a, b = first.artifact.linked, second.artifact.linked
    assert a is not b and a.bindings is not b.bindings
    (bound_a, _, _), = a.bindings.values()
    (bound_b, _, _), = b.bindings.values()
    assert bound_a.kernel is bound_b.kernel
    assert bound_a is not bound_b
    assert not set(a.bindings) & set(b.bindings)
    fields = {field.name for field in dataclasses.fields(first.artifact)}
    assert not fields & {"linked", "_linked"}       # never compared or printed


def test_nothing_module_level_pins_a_run_artifact():
    session = repro.Session()
    handle = lowered(session)
    run_pw(handle)
    module = weakref.ref(handle.artifact.stencil_module)
    sweep = weakref.ref(next(iter(handle.artifact.linked.bindings)))
    del handle, session
    gc.collect()
    assert module() is None and sweep() is None


def test_private_cache_compiler_binds_for_itself_alone():
    handle = lowered()
    run_pw(handle)
    table = handle.artifact.linked
    before = dict(table.bindings)
    private = KernelCompiler(use_shared_cache=False)
    interp = Interpreter(table, execution_mode="vectorize",
                         kernel_compiler=private)
    args = stage(pw_advection)
    interp.call("pw_advection", *args)
    assert bitwise(args[3:], expected(pw_advection, 1))
    assert private.stats["compiled"] == 1 and private.stats["cache_hits"] == 0
    assert private._memo is not table.bindings
    assert table.bindings == before
    (bound, _, _), = private._memo.values()
    assert bound is not next(iter(before.values()))[0]
    # Asking for the artifact's memo and a private cache keeps it private.
    assert KernelCompiler(use_shared_cache=False,
                          bindings=table.bindings)._memo is not table.bindings


def test_forgetting_the_structural_cache_keeps_the_bindings(hash_spy):
    """What ``bench/measure.py`` does around every cold start."""
    handle = lowered()
    first = run_pw(handle)
    held = dict(kernel_compiler._SHARED_CACHE)
    kernel_compiler._SHARED_CACHE.clear()
    try:
        del hash_spy[:]
        again = run_pw(handle)
        assert hash_spy == [] and kernel_compiler._SHARED_CACHE == {}
    finally:
        kernel_compiler._SHARED_CACHE.update(held)
    assert bitwise(again, first) and bitwise(again, expected(pw_advection, 1))
    assert bitwise(run_pw(handle), first)


def test_store_round_trip_starts_with_an_empty_table(tmp_path):
    warm = repro.Session(store=ArtifactStore(tmp_path))
    first = lowered(warm)
    as_lowered = warm.store.total_bytes()
    run_pw(first)
    assert len(first.artifact.linked.bindings) == 1
    # The stored text is the printed IR as lowered: linking leaves no trace in it.
    assert warm.store.total_bytes() == as_lowered > 0
    cold = repro.Session(store=ArtifactStore(tmp_path))
    reloaded = lowered(cold)
    assert cold.cache_stats["disk_hits"] == 1
    assert "_linked" not in reloaded.artifact.__dict__
    assert reloaded.artifact.linked.bindings == {}
    assert reloaded.artifact.linked is not first.artifact.linked
    assert bitwise(run_pw(reloaded), expected(pw_advection, 1))
    assert cold.store.total_bytes() == as_lowered


# ---------------------------------------------------------------------------
# First-run races
# ---------------------------------------------------------------------------


def one_entry_per_sweep_op(artifact):
    ops = sweep_ops(artifact)
    bindings = artifact.linked.bindings
    return ops and set(bindings) == set(ops) and all(
        bound is not None and reason is None
        for bound, _, reason in bindings.values())


@pytest.fixture
def repeats(fuzz_seeds):
    """How often each race is run (``--fuzz-seeds`` deepens it), with the
    interpreter switching threads as often as it can, so first lookups of
    one op really interleave."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield range(max(1, fuzz_seeds // 5))
    sys.setswitchinterval(interval)


def test_first_run_race_in_run_batch(repeats):
    want = expected(pw_advection, 1)
    for _ in repeats:
        session = repro.Session()
        handle = lowered(session)
        arg_sets = [stage(pw_advection) for _ in range(8)]
        handle.run_batch("pw_advection", arg_sets, workers=4)
        assert all(bitwise(args[3:], want) for args in arg_sets)
        assert one_entry_per_sweep_op(handle.artifact)


def test_first_run_race_across_the_ranks_of_a_distributed_plan(repeats):
    field = np.asfortranarray(np.random.default_rng(5).random((12, 12, 6)))
    source = gauss_seidel.generate_source_shaped((8, 8, 8))

    def plan():
        compiled = repro.Session().lower(
            source, "dmp", grid=(2, 2), execution_mode="vectorize")
        return compiled, compiled.distribute(
            source_builder=gauss_seidel.generate_source_shaped)

    _, serial = plan()
    want = serial.run(field.copy(order="F"), iterations=1)
    want = serial.run(want.field, iterations=1).field   # warm, rank by rank
    for _ in repeats:
        compiled, racing = plan()
        got = racing.run(field.copy(order="F"), iterations=2)
        assert got.field.tobytes() == want.tobytes()
        assert one_entry_per_sweep_op(compiled.artifact)


def test_first_run_race_between_two_service_workers(repeats):
    want = expected(pw_advection, 1)
    source = source_of(pw_advection, 1)
    options = {"backend": "cpu", "lower_to_scf": True,
               "execution_mode": "vectorize"}
    for _ in repeats:
        with CompileService(workers=2) as service:
            arg_sets = [stage(pw_advection) for _ in range(2)]
            start = threading.Barrier(2)

            def client(args):
                start.wait()
                service.run(source, "pw_advection", args, **options)

            threads = [threading.Thread(target=client, args=(args,))
                       for args in arg_sets]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(bitwise(args[3:], want) for args in arg_sets)
            artifact = service.session.lower(
                source, "cpu", lower_to_scf=True,
                execution_mode="vectorize").artifact
            assert one_entry_per_sweep_op(artifact)
            assert service.metrics().misses == 1
