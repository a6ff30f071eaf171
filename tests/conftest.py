"""Shared fixtures for the test suite."""

import gc
import sys

import numpy as np
import pytest

from repro.apps import gauss_seidel, pw_advection
from repro.frontend import compile_to_fir
from repro.ir import PassManager
from repro.transforms.pipelines import FIR_STENCIL_PIPELINE


@pytest.fixture
def small_gs_source():
    return gauss_seidel.generate_source(10, niters=2)


@pytest.fixture
def small_pw_source():
    return pw_advection.generate_source(8)


@pytest.fixture
def listing1_source():
    """The 2-D averaging example of the paper's Listing 1."""
    return """
subroutine average(data)
  implicit none
  integer, parameter :: n = 16
  real(kind=8), intent(inout) :: data(n, n)
  integer :: i, j
  do i = 2, n - 1
    do j = 2, n - 1
      data(j, i) = (data(j, i-1) + data(j, i+1) + data(j-1, i) + data(j+1, i)) * 0.25
    end do
  end do
end subroutine average
"""


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fuzz_seeds(request):
    """Seed count for the differential fuzz smoke, set by ``--fuzz-seeds``."""
    return request.config.getoption("--fuzz-seeds")


@pytest.fixture
def empty_kernel_cache():
    """The process-wide kernel cache emptied, and put back afterwards, the
    way ``bench/measure.py`` does around every cold start."""
    from repro.runtime import kernel_compiler

    cache = kernel_compiler._SHARED_CACHE
    held = dict(cache)
    cache.clear()
    yield cache
    cache.clear()
    cache.update(held)


@pytest.fixture
def python_calls():
    """``python_calls(fn)``: the number of Python-level function calls
    ``fn()`` makes — a count, so the same on every machine (unlike a timing).

    The garbage collector is emptied first and paused while counting: a
    collection inside the window would add the calls of whatever finalizers
    the earlier tests left behind, so the count would depend on test order."""
    def count(fn):
        calls = [0]

        def profiler(frame, event, arg):
            calls[0] += event == "call"

        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
            if was_enabled:
                gc.enable()
        return calls[0]

    return count


@pytest.fixture
def rechecked():
    """``rechecked(fn)``: the operations ``verify()`` re-checks while
    ``fn()`` runs — each one ``verify_`` hook call of its walk — in order."""
    def spy(fn):
        seen = []

        def profiler(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "verify_"
                    and frame.f_back.f_code.co_name == "_recheck"):
                seen.append(frame.f_locals["self"])

        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return seen

    return spy


@pytest.fixture
def extract():
    """``extract(source)``: ``(fir, stencil)``, the FIR module of ``source``
    after stencil discovery and extraction and the extracted stencil module,
    not lowered (every backend lowers it to loops before it runs)."""
    def run(source):
        fir = compile_to_fir(source)
        extraction = PassManager().add_pipeline(FIR_STENCIL_PIPELINE)
        extraction.run(fir)
        return fir, extraction.passes[-1].extracted_module

    return run
