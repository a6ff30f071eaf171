"""Session + ArtifactStore integration and cache-clearing semantics.

The on-disk layer must be invisible when absent (``cache_stats`` keeps its
legacy three-key shape), counted separately when present (``disk_hits`` /
``disk_misses``), and ``clear_cache(keep_quarantine=True)`` must let an
operator drop artifacts without un-poisoning known-bad sources.
"""

import pytest

from repro.api import Session
from repro.fuzz import DEFAULT_CONFIG, generate_spec
from repro.resilience import CompileFault, FaultInjector, FaultPlan, InjectedFault
from repro.serve import ArtifactStore

SOURCE = generate_spec(0, DEFAULT_CONFIG).render()
OTHER_SOURCE = generate_spec(1, DEFAULT_CONFIG).render()


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
    def _poisoned_session(self, store=None):
        session = Session(store=store)
        injector = FaultInjector(
            FaultPlan(compile_faults=(CompileFault(index=0, count=99),)))
        session.compile_hook = injector.on_compile
        with pytest.raises(InjectedFault):
            session.compile(SOURCE).lower("cpu")
        session.compile_hook = None
        return session

    def test_clear_cache_default_still_wipes_everything(self):
        session = self._poisoned_session()
        session.clear_cache()
        assert session.resilience_stats == {
            "compile_retries": 0,
            "compiles_quarantined": 0,
            "quarantine_hits": 0,
        }
        # The source compiles again after the un-poisoning.
        assert session.compile(SOURCE).lower("cpu") is not None

    def test_keep_quarantine_preserves_poison_records(self):
        session = self._poisoned_session()
        # The poison record is the exception a quarantined lower re-raises.
        with pytest.raises(InjectedFault) as poisoned:
            session.compile(SOURCE).lower("cpu")
        original = poisoned.value
        assert session.resilience_stats["quarantine_hits"] == 1

        session.clear_cache(keep_quarantine=True)

        # Artifacts and cache counters are gone...
        assert session.cache_stats == {
            "hits": 0, "misses": 0, "coalesced": 0, "artifacts": 0}
        # ...but the poison record (and its counters) survive: lowering the
        # known-bad source re-raises the original exception object without
        # touching the backend.
        stats = session.resilience_stats
        assert stats["compiles_quarantined"] == 1
        assert stats["compile_retries"] == 1
        with pytest.raises(InjectedFault) as excinfo:
            session.compile(SOURCE).lower("cpu")
        assert excinfo.value is original
        assert session.resilience_stats["quarantine_hits"] == 2

    def test_keep_quarantine_still_drops_artifacts(self):
        session = Session()
        session.compile(OTHER_SOURCE).lower("cpu")
        assert session.cache_stats["artifacts"] == 1
        session.clear_cache(keep_quarantine=True)
        assert session.cache_stats["artifacts"] == 0
        # Healthy sources recompile fine.
        session.compile(OTHER_SOURCE).lower("cpu")
        assert session.cache_stats["misses"] == 1
