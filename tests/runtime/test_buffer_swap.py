"""In-place sweeps swap buffers instead of copying.

A lowered nest that overwrites the field its ``memref.snapshot`` reads points
the field's buffer at a spare array, keeps the old one as the snapshot and
copies only the boundary shell its stores leave unwritten
(:class:`repro.runtime.sweep.SwapPlan`).  Every spare here comes out of
``spare_like`` filled with NaN, so a cell the swap forgets to fill reads as
NaN and the bitwise comparison against ``interpret`` mode (which always
copies) fails.  ``--fuzz-seeds N`` deepens the generated in-place
specs (CI: 100).
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.fuzz import DifferentialRunner, generate_spec
from repro.runtime import sweep as sweep_module
from repro.runtime import kernel_compiler
from repro.runtime.kernel_compiler import _BodyTranslator

N = 9


@pytest.fixture(autouse=True)
def spares(monkeypatch):
    """Every spare is NaN-filled; the list holds each one made."""
    made = []

    def poisoned(array):
        made.append(np.full_like(array, np.nan))
        return made[-1]

    monkeypatch.setattr(sweep_module, "spare_like", poisoned)
    return made


def sweep_source(n=N, niters=2, k_range="2, n - 1", host=""):
    """Gauss–Seidel's sweep over ``do k = <k_range>``, then ``host``."""
    return f"""
subroutine sweep(u)
  implicit none
  integer, parameter :: n = {n}
  integer, parameter :: niters = {niters}
  real(kind=8), intent(inout) :: u(n, n, n)
  integer :: i, j, k, it
  do it = 1, niters
    do k = {k_range}
      do j = 2, n - 1
        do i = 2, n - 1
          u(i, j, k) = (u(i-1, j, k) + u(i+1, j, k) + u(i, j-1, k) &
                      + u(i, j+1, k) + u(i, j, k-1) + u(i, j, k+1)) / 6.0d0
        end do
      end do
    end do
    {host}
  end do
end subroutine sweep
"""


def two_field_source(host="", read="v(i+1, j, k)"):
    """:func:`sweep_source` over ``u`` beside a second field ``v``, with the
    sweep's ``u(i+1, j, k)`` read as ``read``."""
    return sweep_source(niters=3, host=host).replace(
        "sweep(u)", "sweep(u, v)").replace(
        "u(n, n, n)", "u(n, n, n), v(n, n, n)").replace("u(i+1, j, k)", read, 1)


def run(source, backend="cpu", mode="vectorize", threads=1, entry="sweep",
        arrays=None):
    arrays = arrays if arrays is not None else \
        [gauss_seidel.initial_condition(N).copy(order="F")]
    interp = repro.Session().lower(
        source, backend, lower_to_scf=True, execution_mode=mode,
        threads=threads).run(entry, *arrays)
    return arrays, interp.stats


def assert_swaps_like_interpret(source, sweeps, **options):
    want, oracle = run(source, mode="interpret")
    got, stats = run(source, **options)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert (stats["snapshots_swapped"], stats["snapshots_copied"]) == (sweeps, 0)
    assert (oracle["snapshots_swapped"], oracle["snapshots_copied"]) == (0, sweeps)
    return stats


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("backend", ["cpu", "openmp"])
@pytest.mark.parametrize("niters", [1, 2, 3])
def test_gauss_seidel_swaps_every_sweep(niters, backend, threads, spares):
    assert_swaps_like_interpret(sweep_source(niters=niters), niters,
                                backend=backend, threads=threads)
    assert len(spares) == 1            # one spare per call, then the old array


def test_a_partial_window_fills_its_wider_shell():
    assert_swaps_like_interpret(sweep_source(niters=3, k_range="3, n - 2"), 3,
                                backend="openmp", threads=2)


@pytest.mark.parametrize("cell", ["1, 2, 3", "4, 4, 4"],
                         ids=["outside-the-window", "inside-the-window"])
def test_a_host_store_between_sweeps_lands_in_the_current_array(cell):
    host = f"u({cell}) = 0.5d0 * u({cell}) + 1.0d0"
    assert_swaps_like_interpret(sweep_source(niters=3, host=host), 3)


#: Statements that rewrite the face ``i = 1`` of ``u`` after the first sweep
#: only (a face rewritten after every sweep hides a stale copy): a host loop
#: (a constant subscript stays FIR), and a stencil of its own (the scalar
#: statement before it ends the sweep's extracted function).
BOUNDARIES = {
    "host-loop": """if (it == 1) then
      do k = 1, n
        do j = 1, n
          u(1, j, k) = 0.5d0 * u(2, j, k) + 1.0d0
        end do
      end do
    end if""",
    "second-stencil": """s = 0.5d0
    if (it == 1) then
      do k = 1, n
        do j = 1, n
          do i = 1, 1
            u(i, j, k) = s * v(i + 1, j, k) + 1.0d0
          end do
        end do
      end do
    end if""",
}


@pytest.mark.parametrize("mode", ["vectorize", "crosscheck"])
@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
def test_a_boundary_update_between_sweeps_refills_the_shell(mode, boundary):
    """Each rewrites a face the swapped nest never writes, so the spare's
    copy of the shell is stale after it and is copied again."""
    source = two_field_source(host=BOUNDARIES[boundary],
                              read="u(i+1, j, k)").replace(
        "integer :: i, j, k, it", "integer :: i, j, k, it\n  real(kind=8) :: s")
    field = gauss_seidel.initial_condition(N).copy(order="F")
    other = (field + 1.0).copy(order="F")
    want, _ = run(source, mode="interpret", arrays=[field.copy(order="F"), other])
    got, stats = run(source, mode=mode,
                     arrays=[field.copy(order="F"), other.copy(order="F")])
    assert got[0].tobytes() == want[0].tobytes()
    assert stats["snapshots_swapped"] == 3
    assert stats["vectorized_sweeps"] == (4 if boundary == "second-stencil" else 3)


def test_crosscheck_swaps_too():
    assert_swaps_like_interpret(sweep_source(niters=3), 3, backend="openmp",
                                mode="crosscheck", threads=2)


def test_the_scalar_fallback_swaps_the_same_way(monkeypatch):
    """The shell comes from the nest's bounds and store offsets, not from
    the kernel: with every kernel body broken the sweep runs scalar and
    swaps identically."""
    real = _BodyTranslator.render
    monkeypatch.setattr(_BodyTranslator, "render", lambda self, flat=False: (
        real(self, flat)[0] + ["return )"], real(self, flat)[1]))
    monkeypatch.setattr(kernel_compiler, "_SHARED_CACHE", {})
    stats = assert_swaps_like_interpret(sweep_source(niters=3), 3)
    assert stats["vectorized_sweeps"] == 0
    assert stats["vectorize_fallbacks"] == 3


@pytest.mark.parametrize("source, copies", [
    (two_field_source(), 6),
    (two_field_source(host="u(1, 1, 1) = v(4, 4, 4)", read="u(i+1, j, k)"), 3),
], ids=["the-sweep-reads-both", "the-host-reads-the-second"])
def test_an_aliased_call_keeps_the_copy_and_counts_it(source, copies, spares):
    """One array for an in-place field and a second name: a swap would leave
    that name on the old array, so every snapshot copies — whether the
    sweep reads the second name, or only the host does."""
    field = gauss_seidel.initial_condition(N).copy(order="F")
    want, oracle = run(source, mode="interpret", arrays=[field.copy(order="F")] * 2)
    got, stats = run(source, arrays=[field.copy(order="F")] * 2)
    assert got[0].tobytes() == want[0].tobytes()
    assert (stats["snapshots_swapped"], stats["snapshots_copied"]) == (0, copies)
    assert stats["snapshots_copied"] == oracle["snapshots_copied"]
    assert not spares


def test_an_array_passed_twice_down_a_call_keeps_the_copy(spares):
    """One buffer for both arguments of the function holding the nest: a
    swap would leave the second argument reading the spare."""
    outer = """
subroutine outer(u)
  implicit none
  integer, parameter :: n = {n}
  real(kind=8), intent(inout) :: u(n, n, n)
  integer :: it
  do it = 1, 3
    call sweep(u, u)
  end do
end subroutine outer
""".format(n=N)
    inner = two_field_source().replace("do it = 1, niters", "do it = 1, 1")
    want, _ = run(outer + inner, mode="interpret", entry="outer")
    got, stats = run(outer + inner, entry="outer")
    assert got[0].tobytes() == want[0].tobytes()
    assert (stats["snapshots_swapped"], stats["snapshots_copied"]) == (0, 6)
    assert not spares


def test_a_field_read_beside_the_swapped_one_is_elided():
    source = two_field_source()
    field = gauss_seidel.initial_condition(N).copy(order="F")
    other = (field + 1.0).copy(order="F")
    want, _ = run(source, mode="interpret", arrays=[field.copy(order="F"), other])
    got, stats = run(source, arrays=[field.copy(order="F"), other.copy(order="F")])
    assert got[0].tobytes() == want[0].tobytes()
    assert (stats["snapshots_swapped"], stats["snapshots_elided"]) == (3, 3)


@pytest.mark.parametrize("niters", [9, 10])
def test_one_n96_operation_copies_at_most_one_field(niters, spares,
                                                    monkeypatch):
    """The benchmark's operation: every sweep swaps; the first copies a
    shell of 6 % of the field, and later ones find their spare holding it
    (nothing writes an array between sweeps); the result crosses back into
    the caller's array once when the sweep count is odd."""
    n = 96
    copies, current = [], []
    real_copyto = np.copyto
    monkeypatch.setattr(sweep_module.np, "copyto", lambda dst, src, **kw: (
        copies.append(dst.shape), real_copyto(dst, src, **kw)))
    real_fill = sweep_module.Sweep._fill_shells
    monkeypatch.setattr(sweep_module.Sweep, "_fill_shells",
                        lambda self, swapped, *args: (
        current.extend(entry[-1] is not None for entry in swapped),
        real_fill(self, swapped, *args)))
    field = gauss_seidel.initial_condition(n).copy(order="F")
    want = gauss_seidel.reference_jacobi(field, niters)
    handle = repro.Session().lower(
        gauss_seidel.generate_source(n, niters=niters), "openmp",
        lower_to_scf=True, threads=2, execution_mode="vectorize")
    stats = handle.run("gauss_seidel", field).stats
    assert field.tobytes() == want.tobytes()
    assert (stats["snapshots_swapped"], stats["snapshots_copied"]) == (niters, 0)
    assert len(spares) == 1
    assert copies.count(field.shape) == niters % 2
    assert current == [False] + [True] * (niters - 1)
    plan, = [plan for plan in handle.artifact.linked.verdicts.values()
             if isinstance(plan, sweep_module.SwapPlan)]
    shell, = plan.shells.values()
    cells = sum(field[slab].size for slab in shell)
    assert cells == n ** 3 - (n - 2) ** 3           # 6.1 % of the field


def test_generated_in_place_kernels_under_poison(fuzz_seeds, spares):
    """Every generated spec that reads a field it writes, through the cpu
    and openmp lowerings, bitwise against the oracle."""
    specs = [spec for spec in map(generate_spec, range(fuzz_seeds))
             if not spec.flang_comparable]
    runner = DifferentialRunner(backends=("cpu", "openmp"))
    divergences = [d for spec in specs for d in runner.run_case(spec).divergences]
    assert not divergences, "\n".join(d.describe() for d in divergences)
    assert len(spares) >= len(specs) > 0
