"""The unified sweep path: loop nests, ``stencil.apply`` and GPU launches all
run kernel lookup → guards → box plan → ``run_boxes`` → crosscheck → stats.

Every op kind × every box plan must be bitwise equal to the scalar oracle
(``execution_mode="interpret"``) and feed exactly the counters its plan names.
The plan is one composition — thread slabs × cache boxes — so the counters
of a row that engages both simply add.
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.dialects import arith, stencil
from repro.dialects.builtin import ModuleOp
from repro.ir import Builder, f64
from repro.runtime import Interpreter, TempValue, parallel_executor
from repro.runtime.kernel_compiler import KernelCompiler

# No __init__.py in the test tree: pytest imports sibling modules top-level.
from test_kernel_compiler import build_average_apply, windowed_only
from test_parallel_executor import exec_apply

N, NITERS = 12, 2          # interior 10^3 per sweep, one sweep per iteration
COUNTERS = ("vectorized_sweeps", "vectorize_fallbacks", "parallel_sweeps",
            "parallel_tiles", "parallel_fallbacks", "cache_tiles",
            "cache_fallbacks", "gpu_launches_vectorized", "gpu_launch_fallbacks")
#: A cache budget under which the 10^3 sweeps here are cut into ten
#: (10, 10, 1) boxes: 100 points x 8 B x the 2 (apply) or 3 (nest) arrays a
#: Gauss-Seidel kernel touches fit, 200 points do not.
TINY_BUDGET = 2400
#: A budget that also cuts the middle dimension: 10-16 points fit, so each
#: plane is ten (10, 1, 1) rows.
ROW_BUDGET = 256

#: op kind -> (backend, lowering options, the counter that counts its sweeps)
KINDS = {
    "nest": ("openmp", {"lower_to_scf": True}, "vectorized_sweeps"),
    "apply": ("cpu", {}, "vectorized_sweeps"),
    "launch": ("gpu", {"lower_to_scf": True}, "gpu_launches_vectorized"),
}

#: plan -> (threads, cache budget, the counters it adds per sweep)
PLANS = {
    "whole": (1, None, {}),
    "threads": (3, None, {"parallel_sweeps": 1, "parallel_tiles": 3}),
    "cache": (1, TINY_BUDGET, {"cache_tiles": 10}),
    # Three slabs of 4, 3 and 3 planes, each cut into one-plane cache boxes.
    "threads+cache": (3, TINY_BUDGET, {"parallel_sweeps": 1, "parallel_tiles": 3,
                                       "cache_tiles": 10}),
    "rows": (1, ROW_BUDGET, {"cache_tiles": 100}),
    # Two 5-plane slabs, each cut into 50 rows.
    "threads+rows": (2, ROW_BUDGET, {"parallel_sweeps": 1, "parallel_tiles": 2,
                                     "cache_tiles": 100}),
    # The same rows, each run by the windowed body instead of a flat span:
    # a box narrow in the unit-stride dimension's neighbours still reads and
    # writes the windows it did.
    "windowed-rows": (1, ROW_BUDGET, {"cache_tiles": 100}),
    "threads+windowed-rows": (2, ROW_BUDGET, {"parallel_sweeps": 1,
                                              "parallel_tiles": 2,
                                              "cache_tiles": 100}),
}


def run_gauss_seidel(compiled, **runtime_options):
    """The result, the nonzero counters, and the bodies the boxes ran."""
    u = gauss_seidel.initial_condition(N)
    interp = compiled.with_options(**runtime_options).run("gauss_seidel", u)
    return u, {key: interp.stats[key] for key in COUNTERS if interp.stats[key]}, \
        set(interp.kernels.stats["renderings"] if interp.kernels else ())


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("kind,plan", [(kind, plan) for kind in KINDS
                                       for plan in PLANS])
def test_every_op_kind_and_plan_matches_the_oracle(kind, plan, mode,
                                                   monkeypatch):
    backend, options, sweep_counter = KINDS[kind]
    threads, budget, per_sweep = PLANS[plan]
    if budget is not None:
        monkeypatch.setattr(parallel_executor, "CACHE_BUDGET_BYTES", budget)
    compiled = repro.compile(
        gauss_seidel.generate_source(N, niters=NITERS)).lower(backend, **options)
    oracle, *_ = run_gauss_seidel(compiled, execution_mode="interpret")
    windowed = "windowed" in plan
    if windowed:
        windowed_only(monkeypatch)
    expected = {sweep_counter: NITERS}
    expected.update({key: count * NITERS for key, count in per_sweep.items()})
    # Guards and plan are per run; the first links, the second looks up
    # (crosscheck's warm runs are in tests/api/test_link_once.py).
    for run in range(2 if mode == "vectorize" else 1):
        result, counters, bodies = run_gauss_seidel(
            compiled, execution_mode=mode, threads=threads)
        assert result.tobytes() == oracle.tobytes(), run
        assert counters == expected, run
        assert bodies == ({"switched off"} if windowed else {"flat"}), run


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


@pytest.mark.parametrize("threads,engaged", [
    (2, {"parallel", "cache"}),
    (1, {"cache"}),
])
def test_broadcasting_apply_result_refuses_once_and_recomputes(
        threads, engaged, monkeypatch):
    monkeypatch.setattr(parallel_executor, "CACHE_BUDGET_BYTES", 256)
    n = 8
    apply_op = build_column_index_apply(n)
    temp = TempValue(np.zeros((n, n), order="F"), (0, 0))
    [oracle] = exec_apply(Interpreter([ModuleOp([])]), apply_op, temp)
    compiler = KernelCompiler(use_shared_cache=False)
    interp = Interpreter([ModuleOp([])], execution_mode="crosscheck",
                         threads=threads, kernel_compiler=compiler)
    kernel = compiler.kernel_for(apply_op).kernel
    assert kernel.tileable

    def fallbacks():
        return {plan: interp.stats[plan + "_fallbacks"]
                for plan in ("parallel", "cache")}

    [first] = exec_apply(interp, apply_op, temp)
    assert not kernel.tileable                      # refused and memoised
    # Every plan the composition engaged is refused once, no other.
    assert fallbacks() == {plan: int(plan in engaged) for plan in fallbacks()}
    [second] = exec_apply(interp, apply_op, temp)   # straight to whole-domain
    # Only a thread count keeps counting: a sweep that runs as one slab
    # although threads > 1.  The cleared ``tileable`` plans no boxes at all.
    assert fallbacks() == {"parallel": 2 * int(threads > 1), "cache": 1}
    assert interp.stats["parallel_sweeps"] == interp.stats["cache_tiles"] == 0
    assert interp.stats["vectorized_sweeps"] == 2
    for value in (first, second):
        assert np.array_equal(np.broadcast_to(value, (n - 2, n - 2)),
                              np.broadcast_to(oracle, (n - 2, n - 2)))


@pytest.mark.parametrize("order", ["F", "C"])
def test_default_boxes_partition_the_domain_and_keep_unit_stride_whole(
        order, monkeypatch):
    """Under the budget the plan is the whole domain; over it the boxes cut
    the largest-stride axes and never the unit-stride one, and thread slabs
    cut the largest-stride axis — which axis that is, is read off the swept
    array, not assumed."""
    n = 18
    apply_op = build_average_apply(n)
    data = np.array(np.random.default_rng(31).random((n, n)), order=order)
    temp = TempValue(data, (0, 0))
    [oracle] = exec_apply(Interpreter([ModuleOp([])]), apply_op, temp)
    compiler = KernelCompiler(use_shared_cache=False)
    interp = Interpreter([ModuleOp([])], execution_mode="crosscheck",
                         kernel_compiler=compiler)
    threaded = Interpreter([ModuleOp([])], execution_mode="crosscheck",
                           threads=2, kernel_compiler=compiler)
    kernel = compiler.kernel_for(apply_op).kernel
    lb, ub = (1, 1), (n - 1, n - 1)
    whole = 0 if order == "F" else 1

    def plan(interpreter):
        return interpreter._plan_sweep(kernel, [temp], lb, ub)

    assert plan(interp) == ([(lb, ub)], 1, None)
    boxes, slabs, name = plan(threaded)
    assert (slabs, name) == (2, None)
    assert [(box_lb[1 - whole], box_ub[1 - whole]) for box_lb, box_ub in boxes] \
        == [(1, 9), (9, 17)]
    assert all((box_lb[whole], box_ub[whole]) == (1, 17) for box_lb, box_ub in boxes)
    monkeypatch.setattr(parallel_executor, "CACHE_BUDGET_BYTES", 1024)
    for interpreter, slabs in ((interp, 1), (threaded, 2)):
        boxes, planned_slabs, name = plan(interpreter)
        assert (planned_slabs, name) == (slabs, "cache") and len(boxes) > slabs
        cover = np.zeros((n, n), dtype=int)
        for box_lb, box_ub in boxes:
            assert (box_lb[whole], box_ub[whole]) == (lb[whole], ub[whole])
            cover[box_lb[0]:box_ub[0], box_lb[1]:box_ub[1]] += 1
        assert (cover[1:-1, 1:-1] == 1).all() and cover.sum() == (n - 2) ** 2

        [boxed] = exec_apply(interpreter, apply_op, temp)
        assert interpreter.stats["cache_tiles"] == len(boxes)
        assert interpreter.stats["parallel_tiles"] == (slabs if slabs > 1 else 0)
        assert boxed.tobytes() == np.asarray(oracle).tobytes()
        assert boxed.flags["F_CONTIGUOUS"] == \
            np.asarray(oracle).flags["F_CONTIGUOUS"]


def test_kernel_without_a_full_rank_window_is_sliced_along_dimension_zero():
    """No swept array, no strides: the thread slabs cut dimension 0 and no
    cache boxes are planned."""
    n = 10
    apply_op = build_average_apply(n)
    body = apply_op.body.block
    for op in reversed(list(body.ops)):
        op.erase(safe=False)
    b = Builder.at_end(body)
    row, column = (b.insert(arith.SIToFPOp(b.insert(stencil.IndexOp(dim)).results[0],
                                           f64)).results[0] for dim in (0, 1))
    b.insert(stencil.ReturnOp([b.insert(arith.AddfOp(row, column)).results[0]]))
    temp = TempValue(np.zeros((n, n), order="F"), (0, 0))
    [oracle] = exec_apply(Interpreter([ModuleOp([])]), apply_op, temp)
    interp = Interpreter([ModuleOp([])], execution_mode="crosscheck", threads=2,
                         kernel_compiler=KernelCompiler(use_shared_cache=False))
    kernel = interp.kernels.kernel_for(apply_op).kernel
    assert kernel.dim_strides([temp]) is None
    assert interp._plan_sweep(kernel, [temp], (1, 1), (n - 1, n - 1)) == \
        ([((1, 1), (5, n - 1)), ((5, 1), (n - 1, n - 1))], 2, None)
    [sliced] = exec_apply(interp, apply_op, temp)
    assert interp.stats["parallel_tiles"] == 2
    assert sliced.tobytes() == np.ascontiguousarray(oracle).tobytes()


def test_five_threads_cut_five_slabs_of_the_outermost_loop():
    """``threads=5`` on a Fortran-ordered 10^3 sweep: five slabs two planes
    thick along dimension 2, each one box under the real budget."""
    compiled = repro.compile(gauss_seidel.generate_source(N, niters=NITERS)).lower(
        "openmp", lower_to_scf=True)
    oracle, *_ = run_gauss_seidel(compiled, execution_mode="interpret")
    result, counters, _ = run_gauss_seidel(compiled, execution_mode="crosscheck",
                                        threads=5)
    assert result.tobytes() == oracle.tobytes()
    assert counters == {"vectorized_sweeps": NITERS, "parallel_sweeps": NITERS,
                        "parallel_tiles": 5 * NITERS}


@pytest.mark.parametrize("threads", [2, 3, 4, 10, 16])
def test_each_thread_count_cuts_its_slabs_of_the_outermost_loop(threads):
    """Up to the sweep's ten planes, ``threads`` cuts that many slabs; more
    threads than planes cut one slab a plane. Each plan crosschecks bitwise
    against the oracle."""
    compiled = repro.compile(gauss_seidel.generate_source(N, niters=NITERS)).lower(
        "openmp", lower_to_scf=True)
    oracle, *_ = run_gauss_seidel(compiled, execution_mode="interpret")
    result, counters, _ = run_gauss_seidel(compiled, execution_mode="crosscheck",
                                           threads=threads)
    assert result.tobytes() == oracle.tobytes()
    assert counters == {"vectorized_sweeps": NITERS, "parallel_sweeps": NITERS,
                        "parallel_tiles": min(threads, N - 2) * NITERS}
