"""Tests for the stencil discovery pass (paper Listing 3) and fusion."""

import json

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import fir, stencil
from repro.dialects.func import FuncOp
from repro.frontend import compile_to_fir
from repro.fuzz import DEFAULT_CORPUS_DIR, CorpusEntry
from repro.fuzz.generator import Access, Statement
from repro.runtime import Interpreter
from repro.transforms import (ConvertStencilToSCFPass, StencilDiscoveryPass,
                              merge_adjacent_applies)
from repro.transforms.stencil_discovery import (
    gather_program_loops,
    get_array_read_data_ops,
    is_indexed_by_loops,
)


def discover(source, merge=True):
    module = compile_to_fir(source)
    discovery = StencilDiscoveryPass(merge=merge)
    discovery.apply(module)
    module.verify()
    return module, discovery


def runnable(module):
    """``module`` with its stencils lowered in place to scf loops, as every
    backend lowers them before they run."""
    ConvertStencilToSCFPass(target="cpu").apply(module)
    module.verify()
    return module


class TestListing2Example:
    """The paper's Listing 1 -> Listing 2 transformation."""

    def test_structure_matches_listing2(self, listing1_source):
        module, discovery = discover(listing1_source)
        assert discovery.discovered == {"average": 1}
        applies = [op for op in module.walk() if isinstance(op, stencil.ApplyOp)]
        assert len(applies) == 1
        apply_op = applies[0]
        accesses = [op for op in apply_op.walk() if isinstance(op, stencil.AccessOp)]
        offsets = sorted(a.offset for a in accesses)
        assert offsets == [(-1, 0), (0, -1), (0, 1), (1, 0)]
        # 3 adds and one multiply by 0.25, exactly as in Listing 2
        assert sum(1 for op in apply_op.walk() if op.name == "arith.addf") == 3
        assert sum(1 for op in apply_op.walk() if op.name == "arith.mulf") == 1

    def test_bounds_derived_from_loops(self, listing1_source):
        module, _ = discover(listing1_source)
        apply_op = next(op for op in module.walk() if isinstance(op, stencil.ApplyOp))
        assert apply_op.lb == (1, 1)
        assert apply_op.ub == (15, 15)

    def test_original_loops_removed(self, listing1_source):
        module, _ = discover(listing1_source)
        assert not any(isinstance(op, fir.DoLoopOp) for op in module.walk())

    def test_field_covers_whole_array(self, listing1_source):
        module, _ = discover(listing1_source)
        load = next(op for op in module.walk() if isinstance(op, stencil.ExternalLoadOp))
        assert load.results[0].type.bounds == ((0, 16), (0, 16))


class TestAnalysisHelpers:
    def test_gather_program_loops(self, small_gs_source):
        module = compile_to_fir(small_gs_source)
        func_op = next(op for op in module.walk() if isinstance(op, FuncOp))
        loops = gather_program_loops(func_op)
        assert len(loops) == 4  # it, k, j, i
        assert all(l.var_ref is not None for l in loops)
        spatial = [l for l in loops if l.lower == 2]
        assert len(spatial) == 3 and all(l.upper == 9 for l in spatial)

    def test_is_indexed_by_loops(self, small_gs_source):
        module = compile_to_fir(small_gs_source)
        func_op = next(op for op in module.walk() if isinstance(op, FuncOp))
        loops = gather_program_loops(func_op)
        array_stores = [
            op for op in func_op.walk()
            if isinstance(op, fir.StoreOp)
            and isinstance(op.memref.owner(), fir.CoordinateOfOp)
        ]
        assert len(array_stores) == 1
        assert is_indexed_by_loops(array_stores[0], loops)
        scalar_stores = [
            op for op in func_op.walk()
            if isinstance(op, fir.StoreOp)
            and not isinstance(op.memref.owner(), fir.CoordinateOfOp)
        ]
        assert all(not is_indexed_by_loops(s, loops) for s in scalar_stores)

    def test_get_array_read_data_ops(self, small_gs_source):
        module = compile_to_fir(small_gs_source)
        func_op = next(op for op in module.walk() if isinstance(op, FuncOp))
        store = next(
            op for op in func_op.walk()
            if isinstance(op, fir.StoreOp)
            and isinstance(op.memref.owner(), fir.CoordinateOfOp)
        )
        assert len(get_array_read_data_ops(store)) == 6  # 7-point stencil reads


class TestGaussSeidelDiscovery:
    def test_seven_point_stencil(self, small_gs_source):
        module, discovery = discover(small_gs_source)
        assert discovery.discovered == {"gauss_seidel": 1}
        apply_op = next(op for op in module.walk() if isinstance(op, stencil.ApplyOp))
        accesses = [op for op in apply_op.walk() if isinstance(op, stencil.AccessOp)]
        assert len(accesses) == 6
        assert all(sum(abs(o) for o in a.offset) == 1 for a in accesses)

    def test_iteration_loop_preserved(self, small_gs_source):
        module, _ = discover(small_gs_source)
        loops = [op for op in module.walk() if isinstance(op, fir.DoLoopOp)]
        assert len(loops) == 1  # the outer 'it' loop survives
        assert any(isinstance(op, stencil.ApplyOp) for op in loops[0].walk())


class TestPWAdvectionDiscoveryAndFusion:
    def test_three_stencils_discovered(self, small_pw_source):
        _, discovery = discover(small_pw_source, merge=False)
        assert discovery.discovered == {"pw_advection": 3}

    def test_fusion_merges_into_single_apply(self, small_pw_source):
        module, _ = discover(small_pw_source, merge=True)
        applies = [op for op in module.walk() if isinstance(op, stencil.ApplyOp)]
        assert len(applies) == 1
        assert len(applies[0].results) == 3

    def test_fusion_deduplicates_inputs(self, small_pw_source):
        module, _ = discover(small_pw_source, merge=True)
        apply_op = next(op for op in module.walk() if isinstance(op, stencil.ApplyOp))
        # u, v, w appear once each even though all three components read them
        assert len(apply_op.operands) == 3

    def test_unfused_module_has_three_applies(self, small_pw_source):
        module, _ = discover(small_pw_source, merge=False)
        applies = [op for op in module.walk() if isinstance(op, stencil.ApplyOp)]
        assert len(applies) == 3
        fused = merge_adjacent_applies(
            next(op for op in module.walk() if isinstance(op, FuncOp))
        )
        assert fused == 2  # two merge steps collapse three applies into one


class TestDiscoveryRejections:
    """Loops that are *not* stencils must be left untouched."""

    @pytest.mark.parametrize("body,reason", [
        ("a(i) = a(idx(i)) * 2.0", "indirect indexing"),
        ("a(i) = a(2*i) + 1.0", "non-unit-stride access"),
        ("s = s + a(i)", "scalar reduction"),
        ("if (s > 0.0) then\n a(i) = 1.0\n end if", "conditional store"),
    ])
    def test_non_stencil_loops_untouched(self, body, reason):
        src = f"""
subroutine not_a_stencil(a, idx, s)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(n)
  integer, intent(in) :: idx(n)
  real(kind=8), intent(inout) :: s
  integer :: i
  do i = 1, 4
    {body}
  end do
end subroutine not_a_stencil
"""
        module, discovery = discover(src)
        assert discovery.discovered == {}
        assert any(isinstance(op, fir.DoLoopOp) for op in module.walk())

    def test_dynamic_bounds_rejected(self):
        src = """
subroutine dyn(a, m)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(n)
  integer, intent(in) :: m
  integer :: i
  do i = 2, m
    a(i) = a(i-1) * 0.5
  end do
end subroutine dyn
"""
        _, discovery = discover(src)
        assert discovery.discovered == {}


class TestLeftBehindOpsKeepTheirOrder:
    """A statement is lifted out of its loop nest only if what stays behind
    neither touches the array it writes nor writes an array it reads."""

    #: Hand-written, not a KernelSpec (indirect subscripts): no .json beside it.
    SOURCE = (DEFAULT_CORPUS_DIR / "hoisted-indirect-store.f90").read_text()

    @pytest.mark.parametrize("mode", ["interpret", "vectorize"])
    @pytest.mark.parametrize("backend", ["flang-only", "cpu"])
    def test_a_store_between_two_uses_of_its_array_stays(self, backend, mode):
        a, idx = np.zeros(12), np.arange(1, 9, dtype=np.int32)
        repro.Session().lower(self.SOURCE, backend, execution_mode=mode).run(
            "hoisted_indirect_store", a, idx)
        assert list(a) == [1.0] * 8 + [2.0] * 4
        assert list(idx) == list(range(5, 13))

    @pytest.mark.parametrize("body,lifted", [
        # idx is read by the stores left behind, before and after.
        ("a(idx(i)) = 1.0\n idx(i) = idx(i) + 4\n a(idx(i)) = 2.0", 0),
        # a is written by the store left behind.
        ("b(i) = a(i)\n a(idx(i)) = 0.0", 0),
        # b is read by the store left behind.
        ("b(i) = 3.0\n a(idx(i)) = b(i)", 0),
        # Refusing a(i) = b(i) leaves its read of b behind: b(i) stays too.
        ("b(i) = 3.0\n a(idx(i)) = 0.0\n a(i) = b(i)", 0),
        # Nothing left behind touches b or c.
        ("a(idx(i)) = 1.0\n b(i) = c(i) * 2.0", 1),
    ])
    def test_only_independent_statements_are_lifted(self, body, lifted):
        module, discovery = discover(f"""
subroutine s(a, b, c, idx)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(12), b(n), c(n)
  integer, intent(inout) :: idx(n)
  integer :: i
  do i = 1, n
    {body}
  end do
end subroutine s
""")
        assert discovery.discovered == ({"s": lifted} if lifted else {})
        assert any(isinstance(op, fir.DoLoopOp) for op in module.walk())


def _corpus_spec(name):
    return CorpusEntry.from_dict(
        json.loads((DEFAULT_CORPUS_DIR / f"{name}.json").read_text())).spec


def _with_offset(spec, statement, offset):
    """``spec`` with the one array read of ``statement`` moved to ``offset``."""
    statements = list(spec.statements)
    read = statements[statement].expr
    statements[statement] = Statement(statements[statement].target,
                                      Access(read.array, (offset,)))
    return spec.replace(statements=tuple(statements))


class TestLiftedStatementsKeepTheirOrder:
    """Two lifted statements of one nest run as two whole sweeps, so each
    element both touch must be touched in the order the loop did."""

    FLOW = _corpus_spec("lifted-flow-dependence")   # b(i) = a(i); c(i) = b(i+1)
    ANTI = _corpus_spec("lifted-anti-dependence")   # c(i) = b(i-1); b(i) = a(i)
    CASES = {
        "flow+1": (FLOW, 0),
        "flow-1": (_with_offset(FLOW, 1, -1), 2),
        "anti-1": (ANTI, 0),
        "anti+1": (_with_offset(ANTI, 0, 1), 2),
    }

    @staticmethod
    def _run(spec, backend, **options):
        a, b, c = np.arange(1.0, 17.0), np.full(16, -1.0), np.zeros(16)
        repro.Session().lower(spec.render(), backend, **options).run(
            spec.entry, a, b, c)
        return np.concatenate([a, b, c])

    @pytest.mark.parametrize("case", CASES)
    def test_only_order_keeping_pairs_are_lifted(self, case):
        spec, lifted = self.CASES[case]
        _, discovery = discover(spec.render())
        assert discovery.discovered == ({spec.entry: lifted} if lifted else {})

    @pytest.mark.parametrize("backend,options", [
        ("cpu", {"execution_mode": "interpret"}),
        ("cpu", {"execution_mode": "vectorize"}),
        ("openmp", {"lower_to_scf": True, "threads": 2,
                    "execution_mode": "vectorize"}),
        ("gpu", {"execution_mode": "vectorize"}),
    ], ids=["cpu-interpret", "cpu-vectorize", "openmp-scf-t2", "gpu"])
    @pytest.mark.parametrize("case", CASES)
    def test_bitwise_equal_to_flang_only(self, case, backend, options):
        spec, _ = self.CASES[case]
        expected = self._run(spec, "flang-only")
        assert self._run(spec, backend, **options).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("loops,body,lifted", [
        # Output dependence: the loop's last write to b(i+1) is b(i) = a(i).
        ("j,i", "b(i, j) = a(i, j)\n b(i+1, j) = c(i, j)", 0),
        ("j,i", "b(i, j) = a(i, j)\n b(i-1, j) = c(i, j)", 2),
        # Lexicographic in loop order: the outer j decides before i.
        ("j,i", "b(i, j) = a(i, j)\n c(i, j) = b(i-1, j+1)", 0),
        ("j,i", "b(i, j) = a(i, j)\n c(i, j) = b(i+1, j-1)", 2),
        ("i,j", "b(i, j) = a(i, j)\n c(i, j) = b(i-1, j+1)", 2),
        # A constant subscript meeting a loop-driven one: not a constant distance.
        ("j,i", "b(i, 3) = a(i, j)\n c(i, j) = b(i, 4)", 0),
    ], ids=["output+1", "output-1", "outer-j+1", "outer-j-1", "outer-i-1",
            "constant-subscript"])
    def test_two_dimensional_pairs(self, loops, body, lifted):
        outer, inner = loops.split(",")
        src = f"""
subroutine s(a, b, c)
  implicit none
  real(kind=8), intent(inout) :: a(8, 8), b(8, 8), c(8, 8)
  integer :: i, j
  do {outer} = 3, 6
    do {inner} = 3, 6
      {body}
    end do
  end do
end subroutine s
"""
        _, discovery = discover(src)
        assert discovery.discovered == ({"s": lifted} if lifted else {})
        results = []
        for backend in ("flang-only", "cpu"):
            rng = np.random.default_rng(0)
            arrays = [np.asfortranarray(rng.random((8, 8))) for _ in range(3)]
            repro.Session().lower(src, backend).run("s", *arrays)
            results.append(b"".join(x.tobytes() for x in arrays))
        assert results[0] == results[1]


class TestLoopVariablesAfterALiftedNest:
    """Erasing a lifted nest erases the only stores to its loop variables:
    a variable read where no loop storing it encloses the read, or a dummy
    argument, is stored the value the loop left, its upper bound, as
    flang-only leaves it."""

    #: Hand-written, not a KernelSpec (it reads loop variables): no .json.
    AFTER = (DEFAULT_CORPUS_DIR / "lifted-loop-variable.f90").read_text()
    #: ``x(j) = i`` reads the inner loop's variable inside the outer nest.
    INSIDE = """
subroutine s(a, b, x)
  implicit none
  real(kind=8), intent(inout) :: a(10, 6), b(10, 6)
  integer, intent(inout) :: x(6)
  integer :: i, j
  do j = 2, 5
    do i = 2, 9
      a(i, j) = b(i-1, j) + b(i+1, j-1)
    end do
    x(j) = i
  end do
end subroutine s
"""
    #: ``i`` is the caller's ``k``.
    DUMMY = """
subroutine inner(a, b, i)
  implicit none
  real(kind=8), intent(inout) :: a(10, 6), b(10, 6)
  integer, intent(inout) :: i
  integer :: j
  do j = 2, 5
    do i = 2, 9
      a(i, j) = b(i-1, j) + b(i+1, j-1)
    end do
  end do
end subroutine inner

subroutine s(a, b, x)
  implicit none
  real(kind=8), intent(inout) :: a(10, 6), b(10, 6)
  integer, intent(inout) :: x(2)
  integer :: k
  call inner(a, b, k)
  x(1) = k
end subroutine s
"""
    #: ``do k = 1, x(2)`` leaves a value no constant states: its nest stays.
    UNKNOWN = """
subroutine s(a, b, x)
  implicit none
  real(kind=8), intent(inout) :: a(10, 6), b(10, 6)
  integer, intent(inout) :: x(2)
  integer :: i, j, k
  do j = 2, 5
    do k = 1, x(2)
    end do
    do i = 2, 9
      a(i, j) = b(i-1, j) + b(i+1, j-1)
    end do
  end do
  x(1) = k
  x(2) = i
end subroutine s
"""
    CASES = {  # source, entry, x before, x after
        "after-the-nest": (AFTER, "lifted_loop_variable", [0, 0], [9, 5]),
        "inside-the-nest": (INSIDE, "s", [0] * 6, [0, 9, 9, 9, 9, 0]),
        "dummy-argument": (DUMMY, "s", [0, 0], [9, 0]),
        "unknown-value": (UNKNOWN, "s", [0, 3], [3, 9]),
    }

    @staticmethod
    def _run(source, entry, x, backend, **options):
        a = np.zeros((10, 6), order="F")
        b = np.asfortranarray(np.arange(60.0).reshape(10, 6))
        x = np.array(x, dtype=np.int32)
        repro.Session().lower(source, backend, **options).run(entry, a, b, x)
        return list(x), a.tobytes()

    @pytest.mark.parametrize("case", ["after-the-nest", "dummy-argument"])
    def test_the_nest_goes_and_its_read_variables_keep_their_last_values(self, case):
        source, entry, _, _ = self.CASES[case]
        module, discovery = discover(source)
        assert discovery.discovered == ({entry: 1} if case == "after-the-nest" else {"inner": 1})
        assert not any(isinstance(op, fir.DoLoopOp) for op in module.walk())
        stored = [op.value.op.literal for op in module.walk()
                  if isinstance(op, fir.StoreOp) and op.value.op.name == "arith.constant"]
        assert stored == ([9, 5] if case == "after-the-nest" else [9])  # j is local

    @pytest.mark.parametrize("case,loops", [("inside-the-nest", 1), ("unknown-value", 2)])
    def test_a_loop_whose_variable_it_cannot_state_stays(self, case, loops):
        """The outer ``j`` loop stays: around ``x(j) = i``, which is not
        lifted because ``i`` changes inside its nest, or around the ``k``
        loop whose last value is no constant."""
        source, entry, _, _ = self.CASES[case]
        module, discovery = discover(source)
        assert discovery.discovered == {entry: 1}
        assert sum(isinstance(op, fir.DoLoopOp) for op in module.walk()) == loops

    @pytest.mark.parametrize("backend,options", [
        ("cpu", {"execution_mode": "interpret"}),
        ("cpu", {"execution_mode": "vectorize"}),
        ("cpu", {"execution_mode": "crosscheck"}),
        ("openmp", {"threads": 2, "execution_mode": "vectorize"}),
        ("gpu", {"execution_mode": "vectorize"}),
    ], ids=["cpu-interpret", "cpu-vectorize", "cpu-crosscheck", "openmp-t2", "gpu"])
    @pytest.mark.parametrize("case", CASES)
    def test_equal_to_flang_only(self, case, backend, options):
        source, entry, before, after = self.CASES[case]
        expected = self._run(source, entry, before, "flang-only")
        assert expected[0] == after
        assert self._run(source, entry, before, backend, **options) == expected


class TestDiscoveryPreservesSemantics:
    def test_differential_execution_gauss_seidel(self):
        n, iters = 9, 2
        source = gauss_seidel.generate_source(n, iters)
        plain = compile_to_fir(source)
        transformed, _ = discover(source)
        a_ref = gauss_seidel.initial_condition(n)
        a_jacobi = a_ref.copy(order="F")
        Interpreter(runnable(transformed)).call("gauss_seidel", a_jacobi)
        expected = gauss_seidel.reference_jacobi(a_ref, iters)
        assert np.allclose(a_jacobi, expected)

    def test_differential_execution_pw(self):
        n = 8
        source = pw_advection.generate_source(n)
        transformed, _ = discover(source)
        u, v, w, su, sv, sw = pw_advection.initial_fields(n)
        Interpreter(runnable(transformed)).call("pw_advection", u, v, w, su, sv, sw)
        rsu, rsv, rsw = pw_advection.reference(u, v, w)
        assert np.allclose(su, rsu) and np.allclose(sv, rsv) and np.allclose(sw, rsw)

    def test_scalar_coefficient_capture(self):
        src = """
subroutine scaled(a, b, c)
  implicit none
  integer, parameter :: n = 10
  real(kind=8), intent(in) :: a(n, n)
  real(kind=8), intent(inout) :: b(n, n)
  real(kind=8), intent(in) :: c
  integer :: i, j
  do j = 2, n - 1
    do i = 2, n - 1
      b(i, j) = c * (a(i-1, j) + a(i+1, j))
    end do
  end do
end subroutine scaled
"""
        module, discovery = discover(src)
        assert discovery.discovered == {"scaled": 1}
        rng = np.random.default_rng(0)
        a = np.asfortranarray(rng.random((10, 10)))
        b = np.zeros((10, 10), order="F")
        Interpreter(runnable(module)).call("scaled", a, b, 2.5)
        expected = np.zeros_like(b)
        expected[1:-1, 1:-1] = 2.5 * (a[:-2, 1:-1] + a[2:, 1:-1])
        assert np.allclose(b, expected)
