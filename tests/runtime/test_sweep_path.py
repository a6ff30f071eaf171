"""The unified sweep path: loop nests (``scf.parallel``, ``omp.wsloop``) and
GPU launches all run kernel lookup → guards → box plan → ``run_boxes`` → crosscheck → stats.

Every op kind × every box plan must be bitwise equal to the scalar oracle
(``execution_mode="interpret"``) and feed exactly the counters its plan names.
The plan is one composition — thread slabs × cache boxes — so the counters
of a row that engages both simply add.
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.runtime import Interpreter, MemoryBuffer, sweep
from repro.runtime.kernel_compiler import compile_loop_nest

# No __init__.py in the test tree: pytest imports sibling modules top-level.
from test_kernel_compiler import build_average_module, run_average, windowed_only

N, NITERS = 12, 2          # interior 10^3 per sweep, one sweep per iteration
COUNTERS = ("vectorized_sweeps", "vectorize_fallbacks", "parallel_sweeps",
            "parallel_tiles", "parallel_fallbacks", "cache_tiles",
            "gpu_launches_vectorized", "gpu_launch_fallbacks")
#: A cache budget under which the 10^3 sweeps here are cut into ten
#: (10, 10, 1) boxes: 100 points x 8 B x the 3 arrays a Gauss-Seidel nest
#: kernel touches fit, 200 points do not.
TINY_BUDGET = 2400
#: A budget that also cuts the middle dimension: 10-16 points fit, so each
#: plane is ten (10, 1, 1) rows.
ROW_BUDGET = 256

#: op kind -> (backend, lowering options, the counter that counts its sweeps)
KINDS = {
    "nest": ("openmp", {}, "vectorized_sweeps"),
    "cpu-nest": ("cpu", {}, "vectorized_sweeps"),
    "launch": ("gpu", {}, "gpu_launches_vectorized"),
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


@pytest.fixture(scope="module")
def oracles():
    """kind -> the scalar oracle's Gauss-Seidel field, run once per kind."""
    return {}


def run_gauss_seidel(compiled, **runtime_options):
    """The result, the nonzero counters, and the bodies the boxes ran."""
    u = gauss_seidel.initial_condition(N)
    interp = compiled.with_options(**runtime_options).run("gauss_seidel", u)
    return u, {key: interp.stats[key] for key in COUNTERS if interp.stats[key]}, \
        set(interp.kernels.stats["renderings"] if interp.kernels else ())


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("kind,plan", [(kind, plan) for kind in KINDS
                                       for plan in PLANS])
def test_every_op_kind_and_plan_matches_the_oracle(kind, plan, mode, oracles,
                                                   monkeypatch):
    backend, options, sweep_counter = KINDS[kind]
    threads, budget, per_sweep = PLANS[plan]
    if budget is not None:
        monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", budget)
    compiled = repro.compile(
        gauss_seidel.generate_source(N, niters=NITERS)).lower(backend, **options)
    if kind not in oracles:
        oracles[kind], *_ = run_gauss_seidel(compiled, execution_mode="interpret")
    oracle = oracles[kind]
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


def test_three_threads_over_three_columns_cut_one_column_slabs():
    """Three threads over an extent of 3 in the outermost (largest-stride)
    dimension plan one-column slabs; slab assignment is exact at any
    extent, so the sweep tiles."""
    n = 5
    module, _ = build_average_module(n)
    data = np.asfortranarray(np.random.default_rng(11).random((n, n)))
    oracle, _ = run_average(module, data, "interpret")
    tiled, interp = run_average(module, data, "crosscheck", threads=3)
    assert tiled.tobytes() == oracle.tobytes()
    assert interp.stats["parallel_sweeps"] == 1
    assert interp.stats["parallel_tiles"] == 3
    assert interp.stats["parallel_fallbacks"] == 0


@pytest.mark.parametrize("order", ["F", "C"])
def test_default_boxes_partition_the_domain_and_keep_unit_stride_whole(
        order, monkeypatch):
    """Under the budget the plan is the whole domain; over it the boxes cut
    the largest-stride axes and never the unit-stride one, and thread slabs
    cut the largest-stride axis — which axis that is, is read off the swept
    array, not assumed."""
    n = 18
    module, nest = build_average_module(n)
    data = np.array(np.random.default_rng(31).random((n, n)), order=order)
    oracle, _ = run_average(module, data, "interpret")
    kernel = compile_loop_nest(nest)
    externals = [None] * len(kernel.external_paths)
    for slot, _ in kernel.loads + kernel.stores:
        externals[slot] = MemoryBuffer.wrap(data)
    lb, ub = (1, 1), (n - 1, n - 1)
    whole = 0 if order == "F" else 1

    def plan(threads):
        interp = Interpreter([module], execution_mode="crosscheck", threads=threads)
        return interp.sweep._plan_sweep(kernel, externals, lb, ub)

    assert plan(1) == ([(lb, ub)], 1, None)
    boxes, slabs, name = plan(2)
    assert (slabs, name) == (2, None)
    assert [(box_lb[1 - whole], box_ub[1 - whole]) for box_lb, box_ub in boxes] \
        == [(1, 9), (9, 17)]
    assert all((box_lb[whole], box_ub[whole]) == (1, 17) for box_lb, box_ub in boxes)
    monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", 1024)
    for threads, slabs in ((1, 1), (2, 2)):
        boxes, planned_slabs, name = plan(threads)
        assert (planned_slabs, name) == (slabs, "cache") and len(boxes) > slabs
        cover = np.zeros((n, n), dtype=int)
        for box_lb, box_ub in boxes:
            assert (box_lb[whole], box_ub[whole]) == (lb[whole], ub[whole])
            cover[box_lb[0]:box_ub[0], box_lb[1]:box_ub[1]] += 1
        assert (cover[1:-1, 1:-1] == 1).all() and cover.sum() == (n - 2) ** 2

        boxed, interp = run_average(module, data, "crosscheck", threads=threads)
        assert interp.stats["cache_tiles"] == len(boxes)
        assert interp.stats["parallel_tiles"] == (slabs if slabs > 1 else 0)
        assert boxed.tobytes() == oracle.tobytes()


def test_five_threads_cut_five_slabs_of_the_outermost_loop():
    """``threads=5`` on a Fortran-ordered 10^3 sweep: five slabs two planes
    thick along dimension 2, each one box under the real budget."""
    compiled = repro.compile(gauss_seidel.generate_source(N, niters=NITERS)).lower(
        "openmp")
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
        "openmp")
    oracle, *_ = run_gauss_seidel(compiled, execution_mode="interpret")
    result, counters, _ = run_gauss_seidel(compiled, execution_mode="crosscheck",
                                           threads=threads)
    assert result.tobytes() == oracle.tobytes()
    assert counters == {"vectorized_sweeps": NITERS, "parallel_sweeps": NITERS,
                        "parallel_tiles": min(threads, N - 2) * NITERS}
