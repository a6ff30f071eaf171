"""What one warm run allocates, as the ``tracemalloc`` peak in units of one
96^3 float64 field (6.75 MiB).

At the ``stencil.apply`` level a sweep used to hold every box's partial, a
whole-domain assembly buffer per result and then copy each into its field:
5.7 fields for PW advection's three results, 1.9 for one Gauss-Seidel sweep.
Delivered into their ``stencil.store`` windows, PW's boxes retain nothing
and an in-place Gauss-Seidel sweep retains its partials only (deferred).
The lowered paths store from inside the kernel and are pinned where they are
(Gauss-Seidel's snapshot copy is one field).
"""

import tracemalloc

import pytest

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


@pytest.mark.parametrize("options, budget", [
    ({}, 1.0),                        # 5.74 before, 0.16 delivered
    ({"lower_to_scf": True}, 0.15),   # 0.11
], ids=["apply", "lowered"])
def test_pw_advection_peak(options, budget):
    compiled = repro.Session().lower(pw_advection.generate_source(N), "cpu",
                                     execution_mode="vectorize", **options)
    fields = pw_advection.initial_fields(N)
    assert warm_peak(lambda: compiled.run("pw_advection", *fields)) < budget


@pytest.mark.parametrize("options, budget", [
    ({}, 1.1),                        # 1.92 before, 0.98 deferred
    ({"lower_to_scf": True}, 1.15),   # 1.10
], ids=["apply", "lowered"])
def test_gauss_seidel_sweep_peak(options, budget):
    compiled = repro.Session().lower(
        gauss_seidel.generate_source(N, niters=1), "cpu",
        execution_mode="vectorize", **options)
    u = gauss_seidel.initial_condition(N)
    assert warm_peak(lambda: compiled.run("gauss_seidel", u)) < budget
