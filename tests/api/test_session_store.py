"""Session + ArtifactStore integration and cache-clearing semantics.

The on-disk layer must be invisible when absent (``cache_stats`` keeps its
legacy three-key shape), counted separately when present (``disk_hits`` /
``disk_misses``), and ``clear_cache(keep_quarantine=True)`` must let an
operator drop artifacts without un-poisoning known-bad sources.
"""

import pytest

from repro.api import Session
from repro.frontend.parser import FortranSyntaxError
from repro.fuzz import DEFAULT_CONFIG, generate_spec
from repro.serve import ArtifactStore

SOURCE = generate_spec(0, DEFAULT_CONFIG).render()
OTHER_SOURCE = generate_spec(1, DEFAULT_CONFIG).render()
#: A source the frontend refuses: the declaration's bounds never close.
BROKEN = "subroutine broken(a)\n  real(8) :: a(4\nend subroutine broken\n"


class TestDiskLayerCounters:
    def test_no_store_keeps_legacy_cache_stats_shape(self):
        session = Session()
        session.compile(SOURCE).lower("cpu")
        assert session.cache_stats == {
            "hits": 0, "misses": 1, "coalesced": 0, "artifacts": 1}

    def test_disk_hits_counted_separately(self, tmp_path):
        warm = Session(store=ArtifactStore(tmp_path))
        warm.compile(SOURCE).lower("cpu")
        assert warm.cache_stats == {
            "hits": 0, "misses": 1, "coalesced": 0, "artifacts": 1,
            "disk_hits": 0, "disk_misses": 1,
        }

        cold = Session(store=ArtifactStore(tmp_path))
        cold.compile(SOURCE).lower("cpu")
        assert cold.cache_stats == {
            "hits": 0, "misses": 0, "coalesced": 0, "artifacts": 1,
            "disk_hits": 1, "disk_misses": 0,
        }
        # A second lower in the same process is a plain memory hit.
        cold.compile(SOURCE).lower("cpu")
        assert cold.cache_stats["hits"] == 1
        assert cold.cache_stats["disk_hits"] == 1

    def test_runtime_derivations_stay_memory_hits(self, tmp_path):
        session = Session(store=ArtifactStore(tmp_path))
        compiled = session.compile(SOURCE).lower("cpu")
        compiled.vectorize(threads=2)
        compiled.crosscheck()
        stats = session.cache_stats
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["disk_misses"] == 1  # only the original cold lower

    def test_store_failures_do_not_break_compiles(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        monkeypatch.setattr(
            ArtifactStore, "_atomic_write",
            lambda self, path, text: (_ for _ in ()).throw(OSError("disk")))
        session = Session(store=store)
        compiled = session.compile(SOURCE).lower("cpu")
        assert compiled is not None
        assert store.stats["write_errors"] == 1
        assert session.cache_stats["misses"] == 1


class TestClearCacheQuarantine:
    def _poisoned_session(self):
        session = Session()
        with pytest.raises(FortranSyntaxError):
            session.compile(BROKEN).lower("cpu")
        return session

    def test_clear_cache_default_still_wipes_everything(self):
        session = self._poisoned_session()
        session.clear_cache()
        assert session.resilience_stats == {
            "compiles_quarantined": 0,
            "quarantine_hits": 0,
        }
        # Un-poisoned, the source reaches the backend again and fails anew.
        with pytest.raises(FortranSyntaxError):
            session.compile(BROKEN).lower("cpu")
        assert session.cache_stats["misses"] == 1

    def test_keep_quarantine_preserves_poison_records(self):
        session = self._poisoned_session()
        # The poison record is the exception a quarantined lower re-raises.
        with pytest.raises(FortranSyntaxError) as poisoned:
            session.compile(BROKEN).lower("cpu")
        original = poisoned.value
        assert session.resilience_stats["quarantine_hits"] == 1

        session.clear_cache(keep_quarantine=True)

        # Artifacts and cache counters are gone...
        assert session.cache_stats == {
            "hits": 0, "misses": 0, "coalesced": 0, "artifacts": 0}
        # ...but the poison record (and its counters) survive: lowering the
        # known-bad source re-raises the original exception object without
        # touching the backend.
        assert session.resilience_stats["compiles_quarantined"] == 1
        with pytest.raises(FortranSyntaxError) as excinfo:
            session.compile(BROKEN).lower("cpu")
        assert excinfo.value is original
        assert session.resilience_stats["quarantine_hits"] == 2
        assert session.cache_stats["misses"] == 0

    def test_keep_quarantine_still_drops_artifacts(self):
        session = Session()
        session.compile(OTHER_SOURCE).lower("cpu")
        assert session.cache_stats["artifacts"] == 1
        session.clear_cache(keep_quarantine=True)
        assert session.cache_stats["artifacts"] == 0
        # Healthy sources recompile fine.
        session.compile(OTHER_SOURCE).lower("cpu")
        assert session.cache_stats["misses"] == 1
