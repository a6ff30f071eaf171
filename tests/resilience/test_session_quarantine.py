"""Session compile failures: quarantined at the first, never retried.

``Backend.lower`` is deterministic, so a compile that raises an
``Exception`` is final: the session poisons the cache key, and every later
lower of that key re-raises the original exception object without reaching
the backend.  A ``KeyboardInterrupt`` or ``SystemExit`` is not the source's
fault: it passes through unrecorded.
"""

import pytest

from repro.api import Session
from repro.api.backends import CpuBackend
from repro.frontend.parser import FortranSyntaxError
from repro.fuzz import DEFAULT_CONFIG, generate_spec

SOURCE = generate_spec(0, DEFAULT_CONFIG).render()
OTHER_SOURCE = generate_spec(1, DEFAULT_CONFIG).render()
#: A source the frontend refuses: the declaration's bounds never close.
BROKEN = "subroutine broken(a)\n  real(8) :: a(4\nend subroutine broken\n"


class CountingBackend(CpuBackend):
    """A cpu backend, never registered, that counts its lowers and raises
    ``raises`` from each while it is set."""

    name = "counting-cpu"

    def __init__(self, raises=None):
        self.raises = raises
        self.lowers = 0

    def lower(self, source, options=None, **overrides):
        self.lowers += 1
        if self.raises is not None:
            raise self.raises
        return super().lower(source, options, **overrides)


class TestFirstFailureIsFinal:
    def test_syntax_error_reaches_the_backend_once(self):
        session, backend = Session(), CountingBackend()
        with pytest.raises(FortranSyntaxError) as first:
            session.lower(BROKEN, backend)
        assert backend.lowers == 1
        with pytest.raises(FortranSyntaxError) as second:
            session.lower(BROKEN, backend)
        assert second.value is first.value
        assert backend.lowers == 1
        assert session.resilience_stats == {
            "compiles_quarantined": 1, "quarantine_hits": 1}

    def test_keyboard_interrupt_passes_through_unrecorded(self):
        session = Session()
        backend = CountingBackend(raises=KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            session.lower(SOURCE, backend)
        assert backend.lowers == 1
        assert session.resilience_stats == {
            "compiles_quarantined": 0, "quarantine_hits": 0}
        # The same key with the backend healthy again compiles.
        backend.raises = None
        assert session.lower(SOURCE, backend) is not None
        assert backend.lowers == 2
        assert session.resilience_stats["compiles_quarantined"] == 0

    def test_system_exit_passes_through_unrecorded(self):
        session = Session()
        backend = CountingBackend(raises=SystemExit(3))
        with pytest.raises(SystemExit):
            session.lower(SOURCE, backend)
        backend.raises = None
        assert session.lower(SOURCE, backend) is not None
        assert backend.lowers == 2


class TestQuarantine:
    def test_quarantine_hits_do_not_grow_the_traceback(self):
        """Each hit re-raises from the compile's traceback: the 2nd and the
        50th hit carry equally many frames."""
        session = Session()
        depths = []
        for _ in range(50):
            with pytest.raises(FortranSyntaxError) as caught:
                session.compile(BROKEN).lower("cpu")
            depths.append(len(caught.traceback))
        assert depths[1] == depths[49]
        assert session.resilience_stats["quarantine_hits"] == 49

    def test_quarantine_is_per_cache_key(self):
        session = Session()
        with pytest.raises(FortranSyntaxError) as cpu:
            session.compile(BROKEN).lower("cpu")
        # A different source compiles fine; the same source on another
        # backend is its own key, so its compile runs (and fails) afresh.
        assert session.compile(OTHER_SOURCE).lower("cpu") is not None
        with pytest.raises(FortranSyntaxError) as openmp:
            session.compile(BROKEN).lower("openmp")
        assert openmp.value is not cpu.value
        assert session.resilience_stats == {
            "compiles_quarantined": 2, "quarantine_hits": 0}

    def test_clear_cache_lifts_quarantine(self):
        session, backend = Session(), CountingBackend()
        with pytest.raises(FortranSyntaxError) as first:
            session.lower(BROKEN, backend)
        session.clear_cache()
        assert session.resilience_stats == {
            "compiles_quarantined": 0, "quarantine_hits": 0}
        # Un-poisoned, the source reaches the backend again.
        with pytest.raises(FortranSyntaxError) as again:
            session.lower(BROKEN, backend)
        assert again.value is not first.value
        assert backend.lowers == 2


class TestDefaultBehaviourUnchanged:
    def test_healthy_session_has_zero_resilience_stats(self):
        session = Session()
        session.compile(SOURCE).lower("cpu")
        assert session.resilience_stats == {
            "compiles_quarantined": 0, "quarantine_hits": 0}
