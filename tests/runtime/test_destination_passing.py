"""Destination passing: a ``stencil.apply`` whose results are simply stored
writes each box straight into its ``stencil.store`` windows.

Every case is bitwise against ``interpret`` mode (which never takes the
path) and, for the two apps, close to their ``repro.apps`` references.  The
``sweeps`` fixture records how every ``run_boxes`` call delivered, and the
cache budget is a hundred-odd bytes throughout, so every sweep here cuts
boxes: one box cannot tell *immediate* from *deferred* from *assembled*.
"""

from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, stencil
from repro.fuzz import DifferentialRunner, Farm
from repro.ir import Builder, f64
from repro.runtime import Interpreter, InterpreterError, parallel_executor
from repro.runtime import interpreter as interpreter_module

# No __init__.py in the test tree: pytest imports sibling modules top-level.
from test_kernel_compiler import windowed_only

N = 10

#: One ``run_boxes`` call: its box count, how it was asked to deliver
#: ("immediate", "deferred", or None without destinations) and whether the
#: destinations came back as the result.
Sweep = namedtuple("Sweep", "boxes mode delivered")


@pytest.fixture(autouse=True)
def tiny_boxes(monkeypatch):
    monkeypatch.setattr(parallel_executor, "CACHE_BUDGET_BYTES", 128)


@pytest.fixture
def sweeps(monkeypatch):
    calls = []
    real = interpreter_module.run_boxes

    def recording(kernel, externals, lowers, uppers, boxes, threads=1,
                  chosen=None, destinations=None, deferred=False):
        results = real(kernel, externals, lowers, uppers, boxes, threads,
                       chosen, destinations, deferred)
        mode = None if destinations is None else \
            "deferred" if deferred else "immediate"
        calls.append(Sweep(len(boxes), mode,  # list.append: thread-safe
                           destinations is not None and results is destinations))
        return results

    monkeypatch.setattr(interpreter_module, "run_boxes", recording)
    return calls


#: plan -> (runtime options, whether every box runs the windowed body)
PLANS = {
    "cache": ({}, False),
    "threads": ({"threads": 2}, False),
    "windowed": ({}, True),
    "windowed+threads": ({"threads": 2}, True),
}


def lower(source, backend="cpu", **options):
    """A private artifact: several tests edit its IR before the first run."""
    return repro.Session().lower(source, backend, **options)


def run_pw(compiled, mode, fields=None, **options):
    fields = pw_advection.initial_fields(N) if fields is None else fields
    compiled.with_options(execution_mode=mode, **options).run("pw_advection",
                                                              *fields)
    return fields


def assert_same_bits(result, oracle):
    for got, expected in zip(result, oracle):
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The two deliveries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("plan", PLANS)
def test_pw_advection_is_delivered_immediately(sweeps, plan, mode, monkeypatch):
    options, windowed = PLANS[plan]
    compiled = lower(pw_advection.generate_source(N))
    oracle = run_pw(compiled, "interpret")
    assert sweeps == []
    if windowed:
        windowed_only(monkeypatch)
    u, v, w, su, sv, sw = run_pw(compiled, mode, **options)
    assert_same_bits((su, sv, sw), oracle[3:])
    for got, expected in zip((su, sv, sw), pw_advection.reference(u, v, w)):
        assert np.allclose(got, expected)
    [sweep] = sweeps
    assert sweep.boxes > 1 and sweep == (sweep.boxes, "immediate", True)


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("plan", PLANS)
def test_in_place_gauss_seidel_is_delivered_deferred(sweeps, plan, mode,
                                                     monkeypatch):
    options, windowed = PLANS[plan]
    niters = 2
    compiled = lower(gauss_seidel.generate_source(N, niters=niters))
    oracle = gauss_seidel.initial_condition(N)
    compiled.with_options(execution_mode="interpret").run("gauss_seidel", oracle)
    u = gauss_seidel.initial_condition(N)
    if windowed:
        windowed_only(monkeypatch)
    compiled.with_options(execution_mode=mode, **options).run("gauss_seidel",
                                                              u)
    assert u.tobytes() == oracle.tobytes()
    assert np.allclose(u, gauss_seidel.reference_jacobi(
        gauss_seidel.initial_condition(N), niters))
    assert len(sweeps) == niters
    for sweep in sweeps:
        assert sweep.boxes > 1 and sweep == (sweep.boxes, "deferred", True)


def test_every_rank_of_a_distributed_plan_delivers_deferred(sweeps):
    field = np.asfortranarray(np.random.default_rng(3).random((N, N, N)))
    iterations = 2

    def run(mode):
        return repro.compile(gauss_seidel.generate_source(N, niters=1)).lower(
            "dmp", grid=(2, 2), execution_mode=mode).distribute(
            source_builder=gauss_seidel.generate_source_shaped).run(
            field, iterations=iterations)

    oracle = run("interpret")
    assert sweeps == []
    result = run("vectorize")
    assert result.field.tobytes() == oracle.field.tobytes()
    assert result.max_interior_error(
        gauss_seidel.reference_jacobi(field, iterations), iterations) < 1e-12
    assert len(sweeps) == 4 * iterations
    for sweep in sweeps:
        assert sweep.boxes > 1 and sweep == (sweep.boxes, "deferred", True)


def test_a_bare_access_in_place_reads_before_any_box_is_written(sweeps):
    """``a(i, j) = a(i, j-1)``: each box's value is a *view* of the input,
    which the previous box's deferred delivery would overwrite."""
    source = """
subroutine shift(a)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(n, n)
  integer :: i, j
  do j = 2, n
    do i = 1, n
      a(i, j) = a(i, j-1)
    end do
  end do
end subroutine shift
"""
    compiled = lower(source)
    results = {}
    for mode in ("interpret", "vectorize", "crosscheck"):
        a = np.asfortranarray(np.arange(64, dtype=np.float64).reshape(8, 8))
        compiled.with_options(execution_mode=mode).run("shift", a)
        results[mode] = a
    expected = np.arange(64, dtype=np.float64).reshape(8, 8)
    expected[:, 1:] = expected[:, :-1].copy()
    assert results["interpret"].tobytes() == np.asfortranarray(expected).tobytes()
    assert_same_bits([results["vectorize"], results["crosscheck"]],
                     [results["interpret"]] * 2)
    assert sweeps[0].boxes > 1 and {s.mode for s in sweeps} == {"deferred"}


# ---------------------------------------------------------------------------
# The verdict, once per op
# ---------------------------------------------------------------------------


def test_the_verdict_is_the_applys_stores_in_result_order_and_is_kept():
    compiled = lower(pw_advection.generate_source(N))
    [apply_op] = [op for op in compiled.stencil_module.walk()
                  if op.name == "stencil.apply"]
    stores = Interpreter._stores_of_results(apply_op)
    assert [store.operands[0] for store in stores] == list(apply_op.results)
    table = compiled._artifact.linked.result_stores
    assert table == {}
    run_pw(compiled, "vectorize")
    assert table == {apply_op: stores}
    # Interpret mode never asks, and a second run finds the answer.
    run_pw(compiled, "interpret")
    run_pw(compiled, "vectorize")
    assert table == {apply_op: stores}


# ---------------------------------------------------------------------------
# Every fallback behaves exactly as it did
# ---------------------------------------------------------------------------

CHAIN = """
subroutine chain(a, b, c)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(in) :: a(n, n)
  real(kind=8), intent(inout) :: b(n, n), c(n, n)
  integer :: i, j
  do j = 2, n - 1
    do i = 2, n - 1
      b(i, j) = a(i-1, j) + a(i+1, j)
      c(i, j) = b(i, j) * 2.0
    end do
  end do
end subroutine chain
"""


def run_chain(compiled, mode):
    rng = np.random.default_rng(17)
    fields = [np.asfortranarray(rng.random((8, 8))) for _ in range(3)]
    interp = compiled.with_options(execution_mode=mode).run("chain", *fields)
    return fields, interp


def chain_ops(compiled):
    module = compiled.stencil_module
    return ([op for op in module.walk() if op.name == "stencil.apply"],
            [op for op in module.walk() if op.name == "stencil.store"])


def narrow_the_first_store(compiled):
    """A store window smaller than the apply's."""
    _, (store, _) = chain_ops(compiled)
    block = store.parent_block()
    block.insert_op_before(stencil.StoreOp(
        store.operands[0], store.operands[1], (2, 2), (6, 6)), store)
    store.erase()


def feed_the_second_apply_from_the_first(compiled):
    """A result used by a store *and* a second apply."""
    (first, second), _ = chain_ops(compiled)
    load = second.operands[0].op
    second.set_operand(0, first.results[0])
    load.erase()


def return_the_column_index(compiled):
    """A result that broadcasts along a cut dimension: dim 1's index only."""
    (first, _), _ = chain_ops(compiled)
    body = first.body.block
    body.last_op.erase(safe=False)
    b = Builder.at_end(body)
    column = b.insert(stencil.IndexOp(1)).results[0]
    b.insert(stencil.ReturnOp([b.insert(arith.SIToFPOp(column, f64)).results[0]]))


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("edit, first_apply", [
    (narrow_the_first_store, Sweep(6, None, False)),
    (feed_the_second_apply_from_the_first, Sweep(6, None, False)),
    # Asked to deliver, refused by the first box, recomputed whole and
    # handed back as it is for the store to broadcast.
    (return_the_column_index, Sweep(6, "immediate", False)),
], ids=lambda value: getattr(value, "__name__", None))
def test_results_that_are_not_simply_stored_take_todays_path(
        sweeps, empty_kernel_cache, edit, first_apply, mode):
    compiled = lower(CHAIN, fuse_stencils=False)
    edit(compiled)
    oracle, _ = run_chain(compiled, "interpret")
    fields, interp = run_chain(compiled, mode)
    assert_same_bits(fields, oracle)
    assert sweeps[0] == first_apply
    # The second apply, untouched by every edit, still delivers.
    assert sweeps[-1] == Sweep(6, "immediate", True)
    refused = edit is return_the_column_index
    assert interp.stats["cache_fallbacks"] == refused
    assert sweeps[1:-1] == ([Sweep(1, "immediate", False)] if refused else [])


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
def test_one_array_passed_for_two_outputs_is_stored_in_program_order(
        sweeps, mode):
    compiled = lower(pw_advection.generate_source(N))

    def run(mode):
        u, v, w, su, _, sw = pw_advection.initial_fields(N)
        return run_pw(compiled, mode, fields=(u, v, w, su, su, sw))

    assert_same_bits(run(mode), run("interpret"))
    [sweep] = sweeps
    assert sweep.boxes > 1 and sweep == (sweep.boxes, None, False)


def test_an_output_that_is_also_an_input_defers(sweeps):
    """``pw_advection(u, v, w, u, sv, sw)``: su's window is u's memory."""
    compiled = lower(pw_advection.generate_source(N))

    def run(mode):
        u, v, w, _, sv, sw = pw_advection.initial_fields(N)
        return run_pw(compiled, mode, fields=(u, v, w, u, sv, sw))

    oracle = run("interpret")
    assert_same_bits(run("vectorize"), oracle)
    assert_same_bits(run("crosscheck"), oracle)
    assert [(s.mode, s.delivered) for s in sweeps] == [("deferred", True)] * 2


# ---------------------------------------------------------------------------
# Crosscheck runs the destination path itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app", ["pw_advection", "gauss_seidel"])
def test_crosscheck_raises_when_a_box_lands_in_the_wrong_window(monkeypatch, app):
    """Every box computes its successor's values (all boxes here have one
    shape), so each delivery — immediate or deferred — lands one box off."""
    real = interpreter_module.run_boxes

    def shifted(kernel, externals, lowers, uppers, boxes, *rest):
        successor = dict(zip(boxes, boxes[1:] + boxes[:1]))
        shim = SimpleNamespace(stores=kernel.stores, fn=lambda ext, lb, ub, chosen:
                               kernel.fn(ext, *successor[lb, ub], chosen))
        return real(shim, externals, lowers, uppers, boxes, *rest)

    monkeypatch.setattr(interpreter_module, "run_boxes", shifted)
    with pytest.raises(InterpreterError, match="diverged from the scalar oracle") as caught:
        if app == "pw_advection":
            run_pw(lower(pw_advection.generate_source(N)), "crosscheck")
        else:
            lower(gauss_seidel.generate_source(N, niters=1)).crosscheck().run(
                "gauss_seidel", gauss_seidel.initial_condition(N))
    # The source names its float literals; the message gives their values.
    assert str(caught.value).endswith("--- parameters ---\n" + (
        "c0 = 0.005, c1 = 0.005, c2 = 0.005" if app == "pw_advection" else "c0 = 6.0"))


def test_crosscheck_reads_delivered_values_back_and_restores_the_windows(
        monkeypatch):
    """Poison what the sweep delivers: the run raises, and the memory it
    leaves is the input's (without the poison the stores then write the
    oracle's values, which every crosscheck case above compares)."""
    real = interpreter_module.run_boxes

    def poisoned(*args):
        results = real(*args)
        results[0][...] += 1.0
        return results

    compiled = lower(gauss_seidel.generate_source(N, niters=1))
    monkeypatch.setattr(interpreter_module, "run_boxes", poisoned)
    u = gauss_seidel.initial_condition(N)
    with pytest.raises(InterpreterError, match="diverged"):
        compiled.with_options(execution_mode="crosscheck").run("gauss_seidel", u)
    assert u.tobytes() == gauss_seidel.initial_condition(N).tobytes()


# ---------------------------------------------------------------------------
# The fuzz matrix through the path (CI: --fuzz-seeds 50)
# ---------------------------------------------------------------------------


def test_generated_kernels_through_both_deliveries(sweeps, fuzz_seeds):
    report = Farm(DifferentialRunner(backends=("cpu", "gpu", "dmp")),
                  count=fuzz_seeds).run()
    assert report.cases == fuzz_seeds
    details = "\n".join(d.describe() for d in report.divergences)
    assert report.ok, f"divergences on the destination path:\n{details}"
    # In-place statements outnumber the others; both deliveries cut boxes.
    for mode, share in (("immediate", 10), ("deferred", 1)):
        delivered = [sweep for sweep in sweeps
                     if sweep.boxes > 1 and sweep.mode == mode]
        assert len(delivered) >= max(1, fuzz_seeds // share), mode
        assert all(sweep.delivered for sweep in delivered), mode
