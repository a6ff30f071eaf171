"""Session compile resilience: single retry, then quarantine.

A transient compile failure (injected through the session's compile hook)
is absorbed by one retry; a persistent one exhausts the retry, poisons the
cache key, and every later lower of that key re-raises the original
exception object instead of retry-storming the backend.
"""

import pytest

from repro.api import Session
from repro.fuzz import DEFAULT_CONFIG, generate_spec
from repro.resilience import (
    CompileFault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
)

SOURCE = generate_spec(0, DEFAULT_CONFIG).render()
OTHER_SOURCE = generate_spec(1, DEFAULT_CONFIG).render()


def session_with(faults):
    session = Session()
    injector = FaultInjector(FaultPlan(compile_faults=faults))
    session.compile_hook = injector.on_compile
    return session


class TestTransientRecovery:
    def test_single_transient_failure_recovered_by_retry(self):
        session = session_with((CompileFault(index=0, count=1),))
        compiled = session.compile(SOURCE).lower("cpu")
        assert compiled is not None
        assert session.resilience_stats == {
            "compile_retries": 1,
            "compiles_quarantined": 0,
            "quarantine_hits": 0,
        }
        assert session.cache_stats == {"hits": 0, "misses": 1, "artifacts": 1}

    def test_recovered_artifact_is_cached_normally(self):
        session = session_with((CompileFault(index=0, count=1),))
        session.compile(SOURCE).lower("cpu")
        session.compile(SOURCE).lower("cpu")
        assert session.cache_stats["hits"] == 1
        assert session.resilience_stats["compile_retries"] == 1


class TestQuarantine:
    def test_persistent_failure_quarantines_after_one_retry(self):
        session = session_with((CompileFault(index=0, count=2),))
        with pytest.raises(InjectedFault, match="injected transient compile"):
            session.compile(SOURCE).lower("cpu")
        stats = session.resilience_stats
        assert stats["compile_retries"] == 1
        assert stats["compiles_quarantined"] == 1

    def test_quarantine_hit_reraises_original_exception_object(self):
        session = session_with((CompileFault(index=0, count=2),))
        with pytest.raises(InjectedFault) as first:
            session.compile(SOURCE).lower("cpu")
        with pytest.raises(InjectedFault) as second:
            session.compile(SOURCE).lower("cpu")
        assert second.value is first.value
        stats = session.resilience_stats
        assert stats["quarantine_hits"] == 1
        # The quarantine hit never reached the backend: no retry storm.
        assert stats["compile_retries"] == 1

    def test_quarantine_hits_do_not_grow_the_traceback(self):
        """Each hit re-raises from the compile's traceback: the 2nd and the
        50th hit carry equally many frames."""
        session = session_with((CompileFault(index=0, count=2),))
        depths = []
        for _ in range(50):
            with pytest.raises(InjectedFault) as caught:
                session.compile(SOURCE).lower("cpu")
            depths.append(len(caught.traceback))
        assert depths[1] == depths[49]
        assert session.resilience_stats["quarantine_hits"] == 49

    def test_quarantine_is_per_cache_key(self):
        session = session_with((CompileFault(index=0, count=2),))
        with pytest.raises(InjectedFault):
            session.compile(SOURCE).lower("cpu")
        # A different source compiles fine; so does the same source on a
        # different backend (its own cache key, its own compile index).
        assert session.compile(OTHER_SOURCE).lower("cpu") is not None
        assert session.compile(SOURCE).lower("openmp") is not None

    def test_quarantined_record_lookup(self):
        session = session_with((CompileFault(index=0, count=2),))
        assert session.quarantined_record(SOURCE, "cpu") is None
        with pytest.raises(InjectedFault) as err:
            session.compile(SOURCE).lower("cpu")
        assert session.quarantined_record(SOURCE, "cpu") is err.value
        assert session.quarantined_record(OTHER_SOURCE, "cpu") is None

    def test_clear_cache_lifts_quarantine(self):
        session = session_with((CompileFault(index=0, count=2),))
        with pytest.raises(InjectedFault):
            session.compile(SOURCE).lower("cpu")
        session.clear_cache()
        assert session.quarantined_record(SOURCE, "cpu") is None
        assert session.resilience_stats == {
            "compile_retries": 0,
            "compiles_quarantined": 0,
            "quarantine_hits": 0,
        }
        # The injector's fault window is spent, so the compile now succeeds.
        assert session.compile(SOURCE).lower("cpu") is not None


class TestDefaultBehaviourUnchanged:
    def test_hookless_session_has_zero_resilience_stats(self):
        session = Session()
        session.compile(SOURCE).lower("cpu")
        assert session.resilience_stats == {
            "compile_retries": 0,
            "compiles_quarantined": 0,
            "quarantine_hits": 0,
        }
