"""What one warm run allocates, as the ``tracemalloc`` peak in units of one
96^3 float64 field (6.75 MiB).

Every backend lowers to loop nests whose kernels store from inside: PW
advection's boxes retain nothing, and an in-place Gauss-Seidel sweep holds
the one field its snapshot swaps out.
"""

import tracemalloc

import repro
from repro.apps import gauss_seidel, pw_advection

N = 96
FIELD = N ** 3 * 8


def warm_peak(run) -> float:
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / FIELD
    finally:
        tracemalloc.stop()


def test_pw_advection_peak():
    compiled = repro.Session().lower(pw_advection.generate_source(N), "cpu",
                                     execution_mode="vectorize")
    fields = pw_advection.initial_fields(N)
    assert warm_peak(lambda: compiled.run("pw_advection", *fields)) < 0.15  # 0.11


def test_gauss_seidel_sweep_peak():
    compiled = repro.Session().lower(
        gauss_seidel.generate_source(N, niters=1), "cpu",
        execution_mode="vectorize")
    u = gauss_seidel.initial_condition(N)
    assert warm_peak(lambda: compiled.run("gauss_seidel", u)) < 1.15  # 1.10
