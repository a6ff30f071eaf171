"""Cache blocking is the default plan, and it pays.

The PW advection apply kernel streams 27 windows of three fields through a
handful of reused temporaries; at n=96 even those leave L2, so the program
runs in cache-sized boxes (the interpreter's default plan, counted in
``cache_tiles``).  The same sweep with ``CACHE_BUDGET_BYTES`` raised past
the domain runs whole — bitwise-equal output — and the default is held to no
slower than it x1.1, a margin wide enough that scheduler noise cannot flake
the suite.
"""

import time

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.runtime import sweep

_N = 96
#: A budget no n=96 working set reaches: every sweep is one box.
_WHOLE_DOMAIN = 1 << 40


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def pw_handle():
    return repro.Session().compile(pw_advection.generate_source(_N)).lower("cpu")


def _runner(handle):
    args = [f.copy(order="F") for f in pw_advection.initial_fields(_N)]
    interp = handle.vectorize()
    return args, lambda: interp.run("pw_advection", *args)


def test_default_plan_blocks_and_beats_the_whole_domain(pw_handle, monkeypatch):
    default_out, run_default = _runner(pw_handle)
    whole_out, run_whole = _runner(pw_handle)
    assert run_default().stats["cache_tiles"] > 0
    default_s = _best_of(run_default)
    monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", _WHOLE_DOMAIN)
    assert run_whole().stats["cache_tiles"] == 0
    whole_s = _best_of(run_whole)
    assert all(d.tobytes() == w.tobytes()
               for d, w in zip(default_out, whole_out))
    assert default_s <= whole_s * 1.1, (
        f"pw_advection n={_N}: {default_s * 1e3:.1f} ms in cache boxes vs "
        f"{whole_s * 1e3:.1f} ms whole-domain — blocking lost"
    )


# ---------------------------------------------------------------------------
# Every box plan computes the whole-domain bits
# ---------------------------------------------------------------------------

#: Budgets that cut the n=12 sweeps of both apps: a few planes' worth, and
#: a few rows' worth (boxes one row thick in the middle dimension).
_CUT_BUDGETS = {"planes": 2400, "rows": 256}
#: config -> (backend, lowering options): an apply, a loop nest and a GPU
#: launch each reach the box plan.
_CONFIGS = {
    "cpu": ("cpu", {}),
    "cpu-scf": ("cpu", {"lower_to_scf": True}),
    "openmp-scf": ("openmp", {"lower_to_scf": True}),
    "gpu": ("gpu", {}),
    "gpu-scf": ("gpu", {"lower_to_scf": True}),
}


def _run_app(app, handle, threads, n=12):
    """Both apps' outputs as bytes, and the interpreter's stats."""
    if app is gauss_seidel:
        entry, args = "gauss_seidel", [gauss_seidel.initial_condition(n)]
    else:
        entry = "pw_advection"
        args = [f.copy(order="F") for f in pw_advection.initial_fields(n)]
    interp = handle.with_options(
        execution_mode="vectorize", threads=threads).run(entry, *args)
    return b"".join(a.tobytes() for a in args), interp.stats


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("budget", _CUT_BUDGETS)
@pytest.mark.parametrize("config", _CONFIGS)
@pytest.mark.parametrize("app", [gauss_seidel, pw_advection], ids=["gs", "pw"])
def test_cache_boxes_are_bitwise_the_whole_domain_sweep(app, config, budget,
                                                        threads, monkeypatch):
    backend, options = _CONFIGS[config]
    handle = repro.compile(app.generate_source(12, niters=2)).lower(
        backend, **options)
    monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES", _WHOLE_DOMAIN)
    whole, whole_stats = _run_app(app, handle, threads)
    monkeypatch.setattr(sweep, "CACHE_BUDGET_BYTES",
                        _CUT_BUDGETS[budget])
    boxed, stats = _run_app(app, handle, threads)
    assert whole_stats["cache_tiles"] == 0 and stats["cache_tiles"] > 0
    # Boxes cut the thread slabs; they never change them.
    assert stats["parallel_tiles"] == whole_stats["parallel_tiles"]
    assert boxed == whole
