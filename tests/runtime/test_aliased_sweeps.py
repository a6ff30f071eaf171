"""Sweeps cut into boxes over arrays that alias: every lowered nest stores
each box in place, so what a box reads must not be what an earlier box wrote.

Each case is bitwise against ``interpret`` mode (the scalar oracle, which
runs no box) and, for the two apps, close to their ``repro.apps``
references.  The cache budget is a hundred-odd bytes throughout, so every
sweep here is cut into many boxes; the ``sweeps`` fixture records how many
each ``run_boxes`` call ran.  What keeps the boxes apart is the snapshot: a
field the function writes is read through a ``memref.snapshot`` that swaps
or copies (``snapshots_swapped`` / ``snapshots_copied``), one it only reads
is read where it is (``snapshots_elided``).  A dmp rank's field, which its
halo exchange uses before the snapshot, is read where it is too, and the
boxes hold their stores until every box has read (``snapshots_deferred``).
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.runtime import InterpreterError, MemoryBuffer
from repro.runtime import interpreter as interpreter_module
from repro.runtime import sweep as sweep_module

# No __init__.py in the test tree: pytest imports sibling modules top-level.
from test_kernel_compiler import windowed_only

N = 8


@pytest.fixture(autouse=True)
def tiny_boxes(monkeypatch):
    monkeypatch.setattr(sweep_module, "CACHE_BUDGET_BYTES", 128)


@pytest.fixture
def sweeps(monkeypatch):
    """The box count of every ``run_boxes`` call, in call order."""
    counts = []
    real = sweep_module.run_boxes

    def recording(kernel, externals, boxes, threads=1, chosen=None):
        counts.append(len(boxes))  # list.append: thread-safe
        return real(kernel, externals, boxes, threads, chosen)

    monkeypatch.setattr(sweep_module, "run_boxes", recording)
    return counts


#: plan -> (runtime options, whether every box runs the windowed body)
PLANS = {
    "cache": ({}, False),
    "threads": ({"threads": 2}, False),
    "windowed": ({}, True),
    "windowed+threads": ({"threads": 2}, True),
}


def lower(source, backend="cpu", **options):
    """A private artifact of ``source`` on ``backend``."""
    return repro.Session().lower(source, backend, **options)


@pytest.fixture(scope="module")
def oracles():
    """(app, backend) -> the interpreted run's fields, run once each."""
    return {}


def run_pw(compiled, mode, fields=None, **options):
    """PW advection's six fields after one run in ``mode``, and the
    interpreter that ran it."""
    fields = pw_advection.initial_fields(N) if fields is None else fields
    interp = compiled.with_options(execution_mode=mode, **options).run(
        "pw_advection", *fields)
    return fields, interp


def assert_same_bits(result, oracle):
    for got, expected in zip(result, oracle, strict=True):
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# The two apps, cut into boxes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("backend", ["cpu", "openmp"])
def test_pw_advection_in_boxes_is_the_oracles(sweeps, oracles, backend, plan,
                                              mode, monkeypatch):
    """PW only reads u, v and w: their snapshots alias the fields, and every
    box stores su, sv and sw straight into their windows."""
    options, windowed = PLANS[plan]
    compiled = lower(pw_advection.generate_source(N), backend)
    if ("pw", backend) not in oracles:
        oracles["pw", backend], _ = run_pw(compiled, "interpret")
        assert sweeps == []
    oracle = oracles["pw", backend]
    if windowed:
        windowed_only(monkeypatch)
    fields, interp = run_pw(compiled, mode, **options)
    assert_same_bits(fields, oracle)
    u, v, w, su, sv, sw = fields
    for got, expected in zip((su, sv, sw), pw_advection.reference(u, v, w)):
        assert np.allclose(got, expected)
    [boxes] = sweeps
    assert boxes > 1 and interp.stats["cache_tiles"] == boxes
    assert interp.stats["snapshots_elided"] == 3
    assert interp.stats["snapshots_copied"] == interp.stats["snapshots_swapped"] == 0


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("backend", ["cpu", "openmp"])
def test_in_place_gauss_seidel_in_boxes_is_the_oracles(sweeps, oracles, backend,
                                                       plan, mode, monkeypatch):
    """Each Gauss-Seidel sweep writes the field it reads: its snapshot swaps
    storage, so every box reads the sweep's input, never a box's output."""
    options, windowed = PLANS[plan]
    niters = 2
    compiled = lower(gauss_seidel.generate_source(N, niters=niters), backend)
    if ("gs", backend) not in oracles:
        oracles["gs", backend] = gauss_seidel.initial_condition(N)
        compiled.with_options(execution_mode="interpret").run(
            "gauss_seidel", oracles["gs", backend])
        assert sweeps == []
    oracle = oracles["gs", backend]
    u = gauss_seidel.initial_condition(N)
    if windowed:
        windowed_only(monkeypatch)
    interp = compiled.with_options(execution_mode=mode, **options).run(
        "gauss_seidel", u)
    assert u.tobytes() == oracle.tobytes()
    assert np.allclose(u, gauss_seidel.reference_jacobi(
        gauss_seidel.initial_condition(N), niters))
    assert len(sweeps) == niters and all(boxes > 1 for boxes in sweeps)
    assert interp.stats["snapshots_swapped"] == niters
    assert interp.stats["snapshots_copied"] == 0


@pytest.mark.parametrize("grid", [(2, 1), (1, 2), (2, 2)])
def test_every_rank_of_a_distributed_plan_cuts_boxes(sweeps, grid):
    field = np.asfortranarray(np.random.default_rng(3).random((N, N, N)))
    iterations = 2

    def run(mode):
        return repro.compile(gauss_seidel.generate_source(N, niters=1)).lower(
            "dmp", grid=grid, execution_mode=mode).distribute(
            source_builder=gauss_seidel.generate_source_shaped).run(
            field, iterations=iterations)

    oracle = run("interpret")
    assert sweeps == []
    result = run("vectorize")
    assert result.field.tobytes() == oracle.field.tobytes()
    assert result.max_interior_error(
        gauss_seidel.reference_jacobi(field, iterations), iterations) < 1e-12
    assert len(sweeps) == grid[0] * grid[1] * iterations
    assert all(boxes > 1 for boxes in sweeps)


@pytest.fixture
def interpreters(monkeypatch):
    """Every interpreter built while the test runs (a plan's ranks)."""
    made = []
    real = interpreter_module.Interpreter.__init__

    def recording(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(interpreter_module.Interpreter, "__init__", recording)
    return made


def run_plan(source_builder, field, grid, mode, iterations):
    """A dmp plan of ``source_builder``'s subroutine run on ``field``."""
    shape = tuple(n // g + 2 for n, g in zip(field.shape, grid + (1,)))
    return repro.Session().lower(source_builder(shape), "dmp", grid=grid,
                                 execution_mode=mode).distribute(
        source_builder=source_builder).run(field, iterations=iterations)


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("grid", [(2, 1), (2, 2)])
def test_every_rank_defers_its_stores_instead_of_copying(sweeps, interpreters,
                                                         grid, mode):
    """A rank's field is halo-exchanged before its snapshot, so it neither
    swaps nor copies: the snapshot is the field, and the boxes store once
    all have read.  Crosscheck's scalar oracle reads a copy."""
    field = np.asfortranarray(np.random.default_rng(5).random((N, N, N)))
    iterations = 3
    alone = run_plan(gauss_seidel.generate_source_shaped, field, (1, 1),
                     "interpret", iterations)
    oracle = run_plan(gauss_seidel.generate_source_shaped, field, grid,
                      "interpret", iterations)
    del interpreters[:]
    result = run_plan(gauss_seidel.generate_source_shaped, field, grid, mode,
                      iterations)
    assert result.field.tobytes() == oracle.field.tobytes() \
        == alone.field.tobytes()
    assert len(interpreters) == grid[0] * grid[1]
    assert all(boxes > 1 for boxes in sweeps)
    for rank in interpreters:
        assert rank.stats["snapshots_deferred"] == iterations
        assert rank.stats["snapshots_swapped"] == 0
        assert rank.stats["snapshots_copied"] == \
            (iterations if mode == "crosscheck" else 0)


def shift_source(shape):
    """``u(i, j, k) = u(i, j-1, k)`` over a local box with ghost planes."""
    n1, n2, n3 = shape
    return f"""
subroutine shift(u)
  implicit none
  real(kind=8), intent(inout) :: u({n1}, {n2}, {n3})
  integer :: i, j, k
  do k = 2, {n3} - 1
    do j = 2, {n2} - 1
      do i = 2, {n1} - 1
        u(i, j, k) = u(i, j-1, k)
      end do
    end do
  end do
end subroutine shift
"""


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
def test_a_deferred_store_of_the_field_it_reads_keeps_its_value(
        sweeps, interpreters, mode):
    """Each box stores a view of the field itself: kept as it is, a box
    stored earlier would change what a later one stores."""
    field = np.asfortranarray(np.arange(N ** 3, dtype=np.float64).reshape(
        (N, N, N)))
    oracle = run_plan(shift_source, field, (1, 2), "interpret", 2)
    del interpreters[:]
    result = run_plan(shift_source, field, (1, 2), mode, 2)
    assert result.field.tobytes() == oracle.field.tobytes()
    assert all(boxes > 1 for boxes in sweeps)
    assert all(rank.stats["snapshots_deferred"] == 2 for rank in interpreters)


def test_a_deferred_store_keeps_a_buffer_its_kernel_writes_again():
    """A kernel that computes into a buffer it stored earlier in the box
    (``reuses_stored``) has that value copied when its store is kept."""
    class Kernel:
        stores = ((0, ((0, 0),)),)
        reuses_stored = True

        @staticmethod
        def store_targets(externals):
            return [externals[0].data]

        @staticmethod
        def fn(ext, lb, ub, chosen=None):
            value = np.full(ub[0] - lb[0], 1.0)
            ext[0].data[lb[0]:ub[0]] = value
            np.add(value, 1.0, out=value)

    target = np.zeros(4)
    externals, store = sweep_module.deferring(Kernel, [MemoryBuffer(target)])
    sweep_module.run_boxes(Kernel, externals, [((0,), (2,)), ((2,), (4,))])
    assert not target.any()
    store()
    assert target.tolist() == [1.0] * 4


# ---------------------------------------------------------------------------
# Statements that read what they write
# ---------------------------------------------------------------------------

SHIFT = """
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


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
def test_a_bare_access_in_place_reads_the_snapshot(sweeps, mode):
    """``a(i, j) = a(i, j-1)``: each box copies a column its predecessor
    box has already overwritten, unless it reads the swapped-out input."""
    compiled = lower(SHIFT)
    expected = np.arange(64, dtype=np.float64).reshape(8, 8)
    expected[:, 1:] = expected[:, :-1].copy()
    results = {}
    for run_mode in ("interpret", mode):
        a = np.asfortranarray(np.arange(64, dtype=np.float64).reshape(8, 8))
        interp = compiled.with_options(execution_mode=run_mode).run("shift", a)
        results[run_mode] = a
    assert results["interpret"].tobytes() == np.asfortranarray(expected).tobytes()
    assert results[mode].tobytes() == results["interpret"].tobytes()
    [boxes] = sweeps
    assert boxes > 1 and interp.stats["snapshots_swapped"] == 1


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


@pytest.mark.parametrize("fuse_stencils", [True, False])
def test_a_field_one_nest_writes_and_the_next_reads(sweeps, fuse_stencils):
    """``c`` reads the ``b`` the nest before it stored: two nests whichever
    way the stencils fuse, the second reading ``b``'s copied snapshot."""
    compiled = lower(CHAIN, fuse_stencils=fuse_stencils)

    def run(mode):
        rng = np.random.default_rng(17)
        fields = [np.asfortranarray(rng.random((8, 8))) for _ in range(3)]
        interp = compiled.with_options(execution_mode=mode).run("chain", *fields)
        return fields, interp

    oracle, _ = run("interpret")
    for mode in ("vectorize", "crosscheck"):
        del sweeps[:]
        fields, interp = run(mode)
        assert_same_bits(fields, oracle)
        a, b, c = fields
        assert c[1:-1, 1:-1].tobytes() == (b[1:-1, 1:-1] * 2.0).tobytes()
        assert len(sweeps) == 2 and all(boxes > 1 for boxes in sweeps)
        assert interp.stats["snapshots_copied"] == 1


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
def test_one_array_passed_for_two_outputs_is_stored_in_program_order(
        sweeps, mode):
    """``pw_advection(u, v, w, su, su, sw)``: every box stores su, then sv
    over it, as the statements do."""
    compiled = lower(pw_advection.generate_source(N))

    def run(mode):
        u, v, w, su, _, sw = pw_advection.initial_fields(N)
        return run_pw(compiled, mode, fields=(u, v, w, su, su, sw))

    oracle, _ = run("interpret")
    fields, interp = run(mode)
    assert_same_bits(fields, oracle)
    [boxes] = sweeps
    assert boxes > 1 and interp.stats["snapshots_copied"] == 0


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
def test_an_output_that_is_also_an_input_copies_its_snapshot(sweeps, mode):
    """``pw_advection(u, v, w, u, sv, sw)``: su's window is u's memory, so
    the snapshot of u copies before the first box stores."""
    compiled = lower(pw_advection.generate_source(N))

    def run(mode):
        u, v, w, _, sv, sw = pw_advection.initial_fields(N)
        return run_pw(compiled, mode, fields=(u, v, w, u, sv, sw))

    oracle, _ = run("interpret")
    fields, interp = run(mode)
    assert_same_bits(fields, oracle)
    [boxes] = sweeps
    assert boxes > 1
    assert interp.stats["snapshots_copied"] == 1
    assert interp.stats["snapshots_elided"] == 2


# ---------------------------------------------------------------------------
# Crosscheck judges the boxes it ran
# ---------------------------------------------------------------------------


def run_app_in_crosscheck(app):
    if app == "pw_advection":
        run_pw(lower(pw_advection.generate_source(N)), "crosscheck")
    else:
        lower(gauss_seidel.generate_source(N, niters=1)).crosscheck().run(
            "gauss_seidel", gauss_seidel.initial_condition(N))


@pytest.mark.parametrize("app", ["pw_advection", "gauss_seidel"])
def test_crosscheck_raises_when_a_box_is_skipped(monkeypatch, app):
    """The last box of every sweep never runs: its window keeps the values
    from before the sweep, which the oracle's do not."""
    real = sweep_module.run_boxes
    monkeypatch.setattr(sweep_module, "run_boxes",
                        lambda kernel, externals, boxes, *rest:
                        real(kernel, externals, boxes[:-1], *rest))
    with pytest.raises(InterpreterError,
                       match="diverged from the scalar oracle") as caught:
        run_app_in_crosscheck(app)
    # The source names its float literals; the message gives their values.
    assert str(caught.value).endswith("--- parameters ---\n" + (
        "c0 = 0.005" if app == "pw_advection" else "c0 = 6.0"))


@pytest.mark.parametrize("app", ["pw_advection", "gauss_seidel"])
def test_a_crosscheck_that_raises_leaves_the_oracles_values(monkeypatch, app):
    """Poison what the boxes store: the run raises, and the memory it
    leaves holds the oracle's stores, a swapped field's included."""
    real = sweep_module.run_boxes

    def poisoned(kernel, externals, boxes, *rest):
        real(kernel, externals, boxes, *rest)
        kernel.store_targets(externals)[0][...] += 1.0

    if app == "pw_advection":
        compiled = lower(pw_advection.generate_source(N))
        oracle, _ = run_pw(compiled, "interpret")
        fields = pw_advection.initial_fields(N)
        with monkeypatch.context() as patched:
            patched.setattr(sweep_module, "run_boxes", poisoned)
            with pytest.raises(InterpreterError, match="diverged"):
                run_pw(compiled, "crosscheck", fields=fields)
        assert_same_bits(fields, oracle)
    else:
        compiled = lower(gauss_seidel.generate_source(N, niters=1))
        oracle = gauss_seidel.initial_condition(N)
        compiled.with_options(execution_mode="interpret").run("gauss_seidel", oracle)
        u = gauss_seidel.initial_condition(N)
        with monkeypatch.context() as patched:
            patched.setattr(sweep_module, "run_boxes", poisoned)
            with pytest.raises(InterpreterError, match="diverged"):
                compiled.with_options(execution_mode="crosscheck").run(
                    "gauss_seidel", u)
        assert u.tobytes() == oracle.tobytes()
