"""End-to-end integration and property-based tests across the whole flow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.apps import gauss_seidel, pw_advection


class TestGaussSeidelAllTargets:
    reference = staticmethod(gauss_seidel.reference_jacobi)

    @pytest.mark.parametrize("target,kwargs", [
        ("cpu", {}),
        ("cpu", {"lower_to_scf": True}),
        ("openmp", {"lower_to_scf": True}),
        ("gpu", {"data_strategy": "optimised"}),
        ("gpu", {"data_strategy": "host_register"}),
    ])
    def test_stencil_targets_match_jacobi_reference(self, target, kwargs):
        n, iters = 10, 2
        source = gauss_seidel.generate_source(n, iters)
        result = repro.compile(source).lower(target, **kwargs)
        work = gauss_seidel.initial_condition(n)
        expected = self.reference(work, iters)
        result.run("gauss_seidel", work)
        assert np.allclose(work, expected)

    def test_flang_only_matches_gauss_seidel_reference(self):
        n, iters = 8, 2
        source = gauss_seidel.generate_source(n, iters)
        result = repro.compile(source).lower("flang-only")
        work = gauss_seidel.initial_condition(n)
        expected = gauss_seidel.reference_gauss_seidel(work, iters)
        result.run("gauss_seidel", work)
        assert np.allclose(work, expected)

    def test_both_semantics_converge_to_same_fixed_point(self):
        n = 8
        initial = gauss_seidel.initial_condition(n)
        jacobi = gauss_seidel.reference_jacobi(initial, 400)
        gs = gauss_seidel.reference_gauss_seidel(initial, 200)
        assert gauss_seidel.residual(jacobi) < 1e-6
        assert gauss_seidel.residual(gs) < 1e-6
        assert np.allclose(jacobi, gs, atol=1e-5)


class TestPWAdvectionAllTargets:
    @pytest.mark.parametrize("target,kwargs", [
        ("flang-only", {}),
        ("cpu", {}),
        ("cpu", {"fuse_stencils": False}),
        ("cpu", {"lower_to_scf": True}),
        ("gpu", {}),
    ])
    def test_matches_reference(self, target, kwargs):
        n = 8
        source = pw_advection.generate_source(n)
        result = repro.compile(source).lower(target, **kwargs)
        u, v, w, su, sv, sw = pw_advection.initial_fields(n)
        result.run("pw_advection", u, v, w, su, sv, sw)
        rsu, rsv, rsw = pw_advection.reference(u, v, w)
        assert np.allclose(su, rsu)
        assert np.allclose(sv, rsv)
        assert np.allclose(sw, rsw)


class TestCompiledProgramMetadata:
    def test_compilation_result_metadata(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("cpu")
        assert result.discovered_stencils == {"gauss_seidel": 1}
        assert len(result.extracted_functions) == 1
        assert len(result.modules) == 2

    def test_flang_only_has_no_stencil_module(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("flang-only")
        assert result.stencil_module is None

    def test_session_reusable(self, small_gs_source, small_pw_source):
        session = repro.Session()
        first = session.lower(small_gs_source, "cpu")
        second = session.lower(small_pw_source, "cpu")
        assert first.discovered_stencils and second.discovered_stencils

    def test_pass_statistics_collected_when_lowering(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("openmp", lower_to_scf=True)
        assert any(s.name == "convert-scf-to-openmp" for s in result.pass_statistics)


# ---------------------------------------------------------------------------
# Property-based differential testing of the whole pipeline
# ---------------------------------------------------------------------------

_OFFSET = st.integers(min_value=-1, max_value=1)


@st.composite
def random_stencil_programs(draw):
    """Random 2-D star-stencil kernels writing b from a (plus their numpy ref)."""
    n = draw(st.integers(min_value=6, max_value=12))
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = []
    for _ in range(n_terms):
        di = draw(_OFFSET)
        dj = draw(_OFFSET)
        coefficient = draw(st.floats(min_value=-2.0, max_value=2.0,
                                     allow_nan=False, allow_infinity=False))
        terms.append((di, dj, round(coefficient, 3)))
    def subscript(var, offset):
        if offset == 0:
            return var
        return f"{var}{'+' if offset > 0 else '-'}{abs(offset)}"

    fortran_terms = " + ".join(
        f"({c!r}d0 * a({subscript('i', di)}, {subscript('j', dj)}))"
        for di, dj, c in terms
    )
    source = f"""
subroutine kernel(a, b)
  implicit none
  integer, parameter :: n = {n}
  real(kind=8), intent(in) :: a(n, n)
  real(kind=8), intent(inout) :: b(n, n)
  integer :: i, j
  do j = 2, n - 1
    do i = 2, n - 1
      b(i, j) = {fortran_terms}
    end do
  end do
end subroutine kernel
"""
    return source, n, terms


class TestPropertyDifferential:
    @given(random_stencil_programs())
    @settings(max_examples=25, deadline=None)
    def test_discovered_stencil_matches_flang_only_execution(self, program):
        source, n, terms = program
        rng = np.random.default_rng(7)
        a = np.asfortranarray(rng.random((n, n)))

        flang_only = repro.compile(source).lower("flang-only")
        b_plain = np.zeros((n, n), order="F")
        flang_only.run("kernel", a, b_plain)

        stencil_flow = repro.compile(source).lower("cpu")
        b_stencil = np.zeros((n, n), order="F")
        stencil_flow.run("kernel", a, b_stencil)

        # b is not read by the kernel, so Jacobi and in-place semantics agree
        # and the two compilation paths must produce identical answers.
        assert np.allclose(b_plain, b_stencil)
        assert stencil_flow.discovered_stencils.get("kernel", 0) == 1

    @given(st.integers(min_value=6, max_value=14), st.integers(min_value=1, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_gauss_seidel_stencil_path_equals_jacobi_for_any_size(self, n, iters):
        source = gauss_seidel.generate_source(n, iters)
        result = repro.compile(source).lower("cpu")
        work = gauss_seidel.initial_condition(n, seed=n)
        expected = gauss_seidel.reference_jacobi(work, iters)
        result.run("gauss_seidel", work)
        assert np.allclose(work, expected)
