"""The unified sweep path: loop nests, ``stencil.apply`` and GPU launches all
run kernel lookup → guards → box plan → ``run_boxes`` → crosscheck → stats.

Every op kind × every box plan must be bitwise equal to the scalar oracle
(``execution_mode="interpret"``) and feed exactly the counters its plan names.
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.dialects import arith, stencil
from repro.dialects.builtin import ModuleOp
from repro.ir import Builder, f64
from repro.runtime import Interpreter, TempValue
from repro.runtime.kernel_compiler import KernelCompiler

# No __init__.py in the test tree: pytest imports sibling modules top-level.
from test_kernel_compiler import build_average_apply
from test_parallel_executor import exec_apply

N, NITERS = 12, 2          # interior 10^3 per sweep, one sweep per iteration
TILE = (4, 4, 4)           # 3 boxes per dimension
COUNTERS = ("vectorized_sweeps", "vectorize_fallbacks", "parallel_sweeps",
            "parallel_tiles", "parallel_fallbacks", "schedule_tiles",
            "schedule_fallbacks", "gpu_launches_vectorized",
            "gpu_launch_fallbacks")

#: op kind -> (backend, lowering options, the counter that counts its sweeps)
KINDS = {
    "nest": ("openmp", {"lower_to_scf": True}, "vectorized_sweeps"),
    "apply": ("cpu", {}, "vectorized_sweeps"),
    "launch": ("gpu", {"lower_to_scf": True}, "gpu_launches_vectorized"),
}

#: plan -> (threads, tiled, the counters it adds per sweep)
PLANS = {
    "whole": (1, False, {}),
    "threads": (3, False, {"parallel_sweeps": 1, "parallel_tiles": 3}),
    "boxes": (1, True, {"schedule_tiles": 27}),
    "boxes+threads": (2, True, {"schedule_tiles": 27}),
}


def run_gauss_seidel(compiled, **interpreter_options):
    u = gauss_seidel.initial_condition(N)
    interp = compiled.run("gauss_seidel", u, **interpreter_options)
    return u, {key: interp.stats[key] for key in COUNTERS if interp.stats[key]}


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("kind,plan", [
    (kind, plan) for kind in KINDS for plan in PLANS
    # Launches stay single-box: the gpu backend takes no loop schedule
    # directives, and a thread count must not tile (or count against) them.
    if not (kind == "launch" and plan.startswith("boxes"))
])
def test_every_op_kind_and_plan_matches_the_oracle(kind, plan, mode):
    backend, options, sweep_counter = KINDS[kind]
    threads, tiled, per_sweep = PLANS[plan]
    compiled = repro.compile(
        gauss_seidel.generate_source(N, niters=NITERS)).lower(backend, **options)
    oracle, _ = run_gauss_seidel(compiled, execution_mode="interpret")
    if tiled:
        compiled = compiled.schedule().tile(*TILE).compiled
    result, counters = run_gauss_seidel(compiled, execution_mode=mode,
                                        threads=threads)
    assert result.tobytes() == oracle.tobytes()
    expected = {sweep_counter: NITERS}
    if kind != "launch":
        expected.update({key: count * NITERS for key, count in per_sweep.items()})
    assert counters == expected


def test_apply_with_one_row_thread_tiles_is_tiled_exactly():
    """Three threads over a dim-0 extent of 3 plan 1-row tiles; slab
    assignment is exact at any tile extent, so the sweep tiles."""
    n = 5
    apply_op = build_average_apply(n)
    data = np.asfortranarray(np.random.default_rng(11).random((n, n)))
    [oracle] = exec_apply(Interpreter([ModuleOp([])]), apply_op,
                          TempValue(data, (0, 0)))
    interp = Interpreter([ModuleOp([])], execution_mode="crosscheck", threads=3,
                         kernel_compiler=KernelCompiler(use_shared_cache=False))
    [tiled] = exec_apply(interp, apply_op, TempValue(data, (0, 0)))
    assert tiled.tobytes() == np.asarray(oracle).tobytes()
    assert interp.stats["parallel_sweeps"] == 1
    assert interp.stats["parallel_tiles"] == 3
    assert interp.stats["parallel_fallbacks"] == 0


def build_column_index_apply(n):
    """An apply whose result is the dim-1 index only: the compiled kernel
    returns it as a ``(1, extent)`` array that broadcasts along dim 0."""
    apply_op = build_average_apply(n)
    body = apply_op.body.block
    body.last_op.erase(safe=False)
    b = Builder.at_end(body)
    column = b.insert(stencil.IndexOp(1)).results[0]
    b.insert(stencil.ReturnOp([b.insert(arith.SIToFPOp(column, f64)).results[0]]))
    return apply_op


@pytest.mark.parametrize("threads,tile,fallback", [
    (2, None, "parallel_fallbacks"),
    (1, (2, 2), "schedule_fallbacks"),
])
def test_broadcasting_apply_result_refuses_once_and_recomputes(threads, tile,
                                                               fallback):
    n = 8
    apply_op = build_column_index_apply(n)
    if tile is not None:
        from repro.ir.attributes import DenseArrayAttr

        apply_op.attributes["schedule.tile"] = DenseArrayAttr(tile)
    temp = TempValue(np.zeros((n, n), order="F"), (0, 0))
    [oracle] = exec_apply(Interpreter([ModuleOp([])]), apply_op, temp)
    compiler = KernelCompiler(use_shared_cache=False)
    interp = Interpreter([ModuleOp([])], execution_mode="crosscheck",
                         threads=threads, kernel_compiler=compiler)
    kernel = compiler.kernel_for(apply_op).kernel
    assert kernel.tileable

    [first] = exec_apply(interp, apply_op, temp)
    assert not kernel.tileable                      # refused and memoised
    assert interp.stats[fallback] == 1
    [second] = exec_apply(interp, apply_op, temp)   # straight to whole-domain
    assert interp.stats["schedule_fallbacks"] == (1 if tile else 0)
    assert interp.stats["parallel_fallbacks"] == (0 if tile else 2)
    assert interp.stats["parallel_sweeps"] == interp.stats["schedule_tiles"] == 0
    assert interp.stats["vectorized_sweeps"] == 2
    for value in (first, second):
        assert np.array_equal(np.broadcast_to(value, (n - 2, n - 2)),
                              np.broadcast_to(oracle, (n - 2, n - 2)))
