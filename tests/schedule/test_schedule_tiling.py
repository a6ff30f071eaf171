"""Cache blocking is the default; ``.tile()`` only reshapes it.

The PW advection apply kernel streams 27 windows of three fields through a
handful of reused temporaries; at n=96 even those leave L2, so the
*unscheduled* program already runs in cache-sized boxes (the interpreter's
default plan, counted in ``cache_tiles``).  An explicit
``tile(32, 32, 32)`` replaces that plan with user-shaped boxes —
bitwise-equal output (proved by ``verify()``) — and must not be needed to
get blocking: the default is held to no slower than the explicit tile x1.1,
a margin wide enough that scheduler noise cannot flake the suite.
"""

import time

import pytest

import repro
from repro.apps import pw_advection

_N = 96
_TILE = (32, 32, 32)


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def pw_handles():
    base = repro.Session().compile(
        pw_advection.generate_source(_N)).lower("cpu")
    schedule = base.schedule().tile(*_TILE).verify()
    return base, schedule.compiled


def test_default_plan_blocks_and_matches_the_explicit_tile(pw_handles):
    base, tiled = pw_handles
    fields = pw_advection.initial_fields(_N)

    def runner(handle):
        args = [f.copy(order="F") for f in fields]
        interp = handle.vectorize()
        return args, lambda: interp.run("pw_advection", *args)

    default_out, run_default = runner(base)
    tiled_out, run_tiled = runner(tiled)
    stats = run_default().stats
    assert stats["cache_tiles"] > 0 and stats["schedule_tiles"] == 0
    run_tiled()
    assert all(d.tobytes() == t.tobytes()
               for d, t in zip(default_out, tiled_out))
    default_s, tiled_s = _best_of(run_default), _best_of(run_tiled)
    assert default_s <= tiled_s * 1.1, (
        f"unscheduled pw_advection n={_N}: {default_s * 1e3:.1f} ms vs "
        f"tile{_TILE} {tiled_s * 1e3:.1f} ms — the default plan lost"
    )


def test_tiled_schedule_is_bitwise_equal(pw_handles):
    base, tiled = pw_handles
    fields = pw_advection.initial_fields(_N)
    expected = [f.copy(order="F") for f in fields]
    actual = [f.copy(order="F") for f in fields]
    base.vectorize().run("pw_advection", *expected)
    interp = tiled.vectorize().run("pw_advection", *actual)
    assert interp.stats["schedule_tiles"] > 0
    assert all(e.tobytes() == a.tobytes()
               for e, a in zip(expected, actual))
