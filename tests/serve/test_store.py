"""ArtifactStore: persistence round-trip and every failure path.

The store's contract is "corruption is a miss, never a crash": truncated
entries, checksum mismatches, garbage headers, version skew, hostile op
tables and racing writers must all surface as ``None`` (→ recompile), with
the failure counted, and never as an exception to the client; and a write
that fails leaves no file behind.
"""

import errno
import hashlib
import json
import os
import random
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import OptionError, Session
from repro.api.backends import registry
from repro.api.program import source_fingerprint
from repro.apps import gauss_seidel, pw_advection
from repro.ir import print_module
from repro.ir.attributes import DenseArrayAttr, UnitAttr
from repro.runtime import Interpreter, SimulatedGPU
from repro.serve import ArtifactStore, STORE_FORMAT_VERSION, key_digest
from repro.serve.store import _checksum, serialize_artifact


def _compile_artifact(source, backend="cpu", **overrides):
    backend_obj = registry.get(backend)
    options = backend_obj.make_options(None, **overrides)
    artifact = backend_obj.lower(source, options)
    key = (source_fingerprint(source), backend_obj.name, options.cache_key())
    return key, artifact, options


def _entry_path(store, key):
    return store._dir / f"{key_digest(key)}.entry"


def _split(entry):
    """An entry's header (a dict) and body."""
    header, _, body = entry.partition(b"\n")
    return json.loads(header), body


def _sealed(header, body):
    """The bytes of an entry of ``header`` and ``body``, its checksum
    re-sealed, so the decoder, not the checksum, meets them."""
    header = dict(header, checksum=_checksum(header, body))
    return json.dumps(header).encode("utf-8") + b"\n" + body


def _write_body(path, body):
    """Replace an entry's body, re-sealing its header."""
    header, _ = _split(path.read_bytes())
    path.write_bytes(_sealed(header, body))


def _op_entries(entry):
    """Every op entry of an op table's ``op``, in pre-order."""
    yield entry
    for blocks in entry[4]:
        for _, ops in blocks:
            for op in ops:
                yield from _op_entries(op)


class TestRoundTrip:
    def test_save_load_round_trip_executes_bitwise(self, tmp_path):
        source = gauss_seidel.generate_source(8, niters=2)
        key, artifact, options = _compile_artifact(
            source, "cpu", lower_to_scf=True)
        store = ArtifactStore(tmp_path)
        assert store.save(key, artifact)

        loaded = store.load(key)
        assert loaded is not None
        assert loaded.discovered_stencils == artifact.discovered_stencils
        assert loaded.extracted_functions == artifact.extracted_functions

        # The reloaded artifact must execute bitwise-identically.
        u_orig = gauss_seidel.initial_condition(8)
        u_loaded = gauss_seidel.initial_condition(8)
        Interpreter(artifact.modules, execution_mode="vectorize").call(
            "gauss_seidel", u_orig)
        Interpreter(loaded.modules, execution_mode="vectorize").call(
            "gauss_seidel", u_loaded)
        assert u_orig.tobytes() == u_loaded.tobytes()

    @pytest.mark.parametrize("backend,overrides", [
        ("flang-only", {}),
        ("gpu", {"lower_to_scf": True}),
        ("dmp", {"grid": (2, 1)}),
    ])
    def test_every_backend_round_trips(self, tmp_path, backend, overrides):
        source = gauss_seidel.generate_source(6)
        key, artifact, options = _compile_artifact(source, backend,
                                                   **overrides)
        store = ArtifactStore(tmp_path)
        assert store.save(key, artifact)
        loaded = store.load(key)
        assert loaded is not None
        assert (loaded.stencil_module is None) == (
            artifact.stencil_module is None)
        assert store.stats["hits"] == 1

    def test_absent_key_is_a_plain_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        source = gauss_seidel.generate_source(6)
        key = (source_fingerprint(source), "cpu", ())
        assert store.load(key) is None
        assert store.stats["misses"] == 1
        assert store.stats["corrupt_entries"] == 0

    def test_key_digest_is_stable_and_distinct(self):
        fp = "a" * 64
        key_a = (fp, "cpu", (("lower_to_scf", True),))
        key_b = (fp, "cpu", (("lower_to_scf", False),))
        assert key_digest(key_a) == key_digest(key_a)
        assert key_digest(key_a) != key_digest(key_b)
        assert key_digest(key_a) != key_digest((fp, "gpu", key_a[2]))


class TestFailurePaths:
    """Every corruption mode is a safe miss + recompile, never an exception."""

    def _stored(self, tmp_path, **overrides):
        source = gauss_seidel.generate_source(6)
        key, artifact, options = _compile_artifact(source, "cpu", **overrides)
        store = ArtifactStore(tmp_path)
        store.save(key, artifact)
        return store, key, source, options

    def test_truncated_entry_is_a_miss_and_entry_is_dropped(self, tmp_path):
        store, key, source, options = self._stored(tmp_path)
        path = _entry_path(store, key)
        path.write_bytes(path.read_bytes()[:-100])
        assert store.load(key) is None
        assert store.stats["corrupt_entries"] == 1
        assert not path.exists()

    def test_bad_checksum_is_a_miss(self, tmp_path):
        store, key, source, options = self._stored(tmp_path)
        path = _entry_path(store, key)
        path.write_bytes(path.read_bytes() + b" ")
        assert store.load(key) is None
        assert store.stats["corrupt_entries"] == 1

    def test_a_deleted_entry_is_a_plain_miss(self, tmp_path):
        store, key, source, options = self._stored(tmp_path)
        _entry_path(store, key).unlink()
        assert store.load(key) is None
        assert store.stats["misses"] == 1
        assert store.stats["corrupt_entries"] == 0

    @pytest.mark.parametrize("garbage", [b"{not json", b"[1, 2]"])
    def test_garbage_header_is_a_miss(self, tmp_path, garbage):
        store, key, source, options = self._stored(tmp_path)
        path = _entry_path(store, key)
        _, body = _split(path.read_bytes())
        path.write_bytes(garbage + b"\n" + body)
        assert store.load(key) is None
        assert store.stats["corrupt_entries"] == 1
        assert not path.exists()

    @pytest.mark.parametrize("bogus", [
        b"this is not an op table",
        b"[]",
        b'[{"types": [], "attrs": [], "hints": [], "op": 7}]',
    ])
    def test_checksum_matches_but_body_undecodable_is_a_miss(
            self, tmp_path, bogus):
        store, key, source, options = self._stored(tmp_path)
        _write_body(_entry_path(store, key), bogus)
        assert store.load(key) is None
        assert store.stats["corrupt_entries"] == 1

    def test_version_mismatch_is_a_counted_miss_not_corruption(self, tmp_path):
        store, key, source, options = self._stored(tmp_path)
        path = _entry_path(store, key)
        header, body = _split(path.read_bytes())
        header["format_version"] = STORE_FORMAT_VERSION + 1
        skewed = _sealed(header, body)
        path.write_bytes(skewed)
        assert store.load(key) is None
        stats = store.stats
        assert stats["version_mismatches"] == 1
        assert stats["corrupt_entries"] == 0
        # A version-skewed entry is left alone (an old reader must not
        # destroy a future writer's data).
        assert path.read_bytes() == skewed

    def test_a_full_disk_leaves_no_file_behind(self, tmp_path, monkeypatch):
        """A write that runs out of room fails whole: ``save`` counts a write
        error, nothing of the entry stays on disk, and ``clear()`` empties
        the directory.  The disk here has room for the op tables alone."""
        store, key, source, options = self._stored(tmp_path)
        other = gauss_seidel.generate_source(6, name="other")
        other_key, artifact, _ = _compile_artifact(other, "cpu")
        body, _ = serialize_artifact(artifact)
        free = [len(body)]
        write_bytes = Path.write_bytes

        def full_disk(path, data):
            if len(data) > free[0]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            free[0] -= len(data)
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", full_disk)
        assert store.save(other_key, artifact) is False
        assert store.stats["write_errors"] == 1
        assert len(store) == 1
        # Every byte on disk is an entry's: no orphan the cap cannot see.
        assert sum(file.stat().st_size for file in store._dir.iterdir()) == (
            store.total_bytes())
        store.clear()
        assert list(store._dir.iterdir()) == []

    def test_a_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        source = gauss_seidel.generate_source(6)
        key, artifact, _ = _compile_artifact(source, "cpu")
        store = ArtifactStore(tmp_path)

        def replace(src, dst):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", replace)
        assert store.save(key, artifact) is False
        assert store.stats["write_errors"] == 1
        assert list(store._dir.iterdir()) == []

    def _run_gs_scf(self, session):
        u = gauss_seidel.initial_condition(6)
        session.lower(gauss_seidel.generate_source(6), "cpu",
                      lower_to_scf=True).run("gauss_seidel", u)
        return u.tobytes() == gauss_seidel.reference_jacobi(
            gauss_seidel.initial_condition(6), 1).tobytes()

    def test_a_text_entry_of_format_2_is_recompiled_into_v4(self, tmp_path):
        """Where and how format 2 stored a lowered Gauss–Seidel: printed IR
        under ``v2/``.  This build reads no text, so the entry is a miss that
        recompiles into ``v4/`` and is left alone."""
        source = gauss_seidel.generate_source(6)
        key, artifact, _ = _compile_artifact(source, "cpu", lower_to_scf=True)
        _, artifact_meta = serialize_artifact(artifact)
        payload = "\n//=== repro.serve stencil-module ===//\n".join(
            print_module(module) for module in artifact.modules).encode()
        old = tmp_path / "v2"
        old.mkdir()
        digest = key_digest(key)
        meta = {"format_version": 2,
                "checksum": hashlib.sha256(payload).hexdigest(),
                "payload_bytes": len(payload), "artifact": artifact_meta}
        (old / f"{digest}.ir").write_bytes(payload)
        (old / f"{digest}.json").write_text(json.dumps(meta), encoding="utf-8")
        session = Session(store=ArtifactStore(tmp_path))
        assert self._run_gs_scf(session)
        assert session.cache_stats["misses"] == 1
        assert session.cache_stats["disk_hits"] == 0
        assert (old / f"{digest}.ir").read_bytes() == payload   # left alone
        assert (tmp_path / "v4" / f"{digest}.entry").exists()
        warm = Session(store=ArtifactStore(tmp_path))
        assert self._run_gs_scf(warm)
        assert warm.cache_stats["disk_hits"] == 1

    def test_an_op_table_pair_of_format_3_is_a_plain_miss_recompiled_into_v4(
            self, tmp_path):
        """Where and how format 3 stored a lowered Gauss–Seidel: the op
        tables in ``v3/<digest>.ops`` and a JSON sidecar naming their
        checksum beside them.  This build looks only in ``v4/``: the lower
        is a plain miss, not a corrupt entry, it recompiles into ``v4/``,
        and the old pair is left byte-identical."""
        source = gauss_seidel.generate_source(6)
        key, artifact, _ = _compile_artifact(source, "cpu", lower_to_scf=True)
        payload, artifact_meta = serialize_artifact(artifact)
        fingerprint, backend, options_key = key
        sidecar = json.dumps({
            "format_version": 3,
            "key": {"source_fingerprint": fingerprint, "backend": backend,
                    "options": repr(options_key)},
            "checksum": hashlib.sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
            "artifact": artifact_meta,
        }, indent=1, sort_keys=True).encode("utf-8")
        old = tmp_path / "v3"
        old.mkdir()
        digest = key_digest(key)
        (old / f"{digest}.ops").write_bytes(payload)
        (old / f"{digest}.json").write_bytes(sidecar)
        session = Session(store=ArtifactStore(tmp_path))
        assert self._run_gs_scf(session)
        assert session.cache_stats["misses"] == 1
        assert session.cache_stats["disk_hits"] == 0
        assert session.store.stats["corrupt_entries"] == 0
        assert session.store.stats["version_mismatches"] == 0
        assert (old / f"{digest}.ops").read_bytes() == payload
        assert (old / f"{digest}.json").read_bytes() == sidecar
        assert sorted(p.name for p in old.iterdir()) == [
            f"{digest}.json", f"{digest}.ops"]
        assert (tmp_path / "v4" / f"{digest}.entry").exists()
        warm = Session(store=ArtifactStore(tmp_path))
        assert self._run_gs_scf(warm)
        assert (warm.cache_stats["disk_hits"], warm.cache_stats["misses"]) == (
            1, 0)

    def test_a_gpu_entry_keyed_by_the_deleted_tile_option_is_a_counted_miss(
            self, tmp_path):
        """Before the GPU tile became a constant, a gpu key also held
        ``("tile_sizes", None)``.  Such an entry is never found under this
        build's key: the lower is a counted miss that recompiles, never a
        corrupt entry, and the old entry is left alone."""
        source = pw_advection.generate_source(8, niters=1)
        key, artifact, _ = _compile_artifact(source, "gpu", lower_to_scf=True)
        fingerprint, backend, options_key = key
        old_key = (fingerprint, backend, options_key + (("tile_sizes", None),))
        store = ArtifactStore(tmp_path)
        assert store.save(old_key, artifact)
        old_entry = _entry_path(store, old_key)

        session = Session(store=ArtifactStore(tmp_path))
        session.lower(source, "gpu", lower_to_scf=True)
        assert session.cache_stats["misses"] == 1
        assert session.cache_stats["disk_hits"] == 0
        assert session.store.stats["corrupt_entries"] == 0
        assert old_entry.exists()
        warm = Session(store=ArtifactStore(tmp_path))
        warm.lower(source, "gpu", lower_to_scf=True)
        assert (warm.cache_stats["disk_hits"], warm.cache_stats["misses"]) == (
            1, 0)

    def test_a_gpu_entry_with_the_deleted_launch_tags_loads_and_runs_bitwise(
            self, tmp_path):
        """Before each backend had one lowering, the gpu data passes also
        tagged every stencil function with ``gpu.launch``, ``gpu.grid`` and
        ``gpu.block``.  The gpu key is unchanged, so such an entry is a disk
        hit: the tags load as attributes nothing reads, and the run computes
        the same bits and the same device traffic as a fresh compile."""
        source = pw_advection.generate_source(8, niters=2)
        key, artifact, _ = _compile_artifact(source, "gpu")
        for name in artifact.extracted_functions:
            func = artifact.stencil_module.get_symbol(name)
            func.set_attr("gpu.launch", UnitAttr())
            func.set_attr("gpu.grid", DenseArrayAttr((1, 1, 6)))
            func.set_attr("gpu.block", DenseArrayAttr((6, 6, 1)))
        assert ArtifactStore(tmp_path).save(key, artifact)

        def run(session):
            compiled = session.lower(source, "gpu")
            rng = np.random.default_rng(11)
            fields = [np.asfortranarray(rng.random((8, 8, 8)))
                      for _ in range(6)]
            device = SimulatedGPU()
            compiled.run("pw_advection", *fields, gpu=device)
            return compiled, [f.tobytes() for f in fields], device.summary()

        session = Session(store=ArtifactStore(tmp_path))
        loaded, got, got_device = run(session)
        assert (session.cache_stats["disk_hits"], session.cache_stats["misses"],
                session.store.stats["corrupt_entries"]) == (1, 0, 0)
        assert '"gpu.grid"' in print_module(loaded.stencil_module)
        _, want, want_device = run(Session())
        assert got == want
        for counter in ("launches", "h2d_bytes", "d2h_bytes",
                        "on_demand_bytes", "peak_allocated_bytes"):
            assert got_device[counter] == want_device[counter]

    def test_a_table_naming_an_op_this_build_does_not_register_is_a_corrupt_miss(
            self, tmp_path):
        """Stored tables decode strictly: an op deleted since the entry was
        written (``memref.alloc``, gone since stores of format 1) is a
        counted miss, not a disk hit whose first run raises 'no interpreter
        handler'."""
        Session(store=ArtifactStore(tmp_path)).lower(
            gauss_seidel.generate_source(6), "cpu", lower_to_scf=True)
        store = ArtifactStore(tmp_path)
        (path,) = store._dir.glob("*.entry")
        tables = json.loads(_split(path.read_bytes())[1])
        (snapshot,) = [entry for table in tables
                       for entry in _op_entries(table["op"])
                       if entry[0] == "memref.snapshot"]
        snapshot[0] = "memref.alloc"
        _write_body(path, json.dumps(tables).encode())
        session = Session(store=store)
        assert self._run_gs_scf(session)
        assert store.stats["corrupt_entries"] == 1
        assert session.cache_stats["misses"] == 1
        assert session.cache_stats["disk_hits"] == 0

    def test_session_recompiles_through_a_corrupt_entry(self, tmp_path):
        """End to end: corruption costs one recompile, never an exception."""
        source = gauss_seidel.generate_source(6)
        store = ArtifactStore(tmp_path)
        warm = Session(store=store)
        warm.lower(source, "cpu", lower_to_scf=True)
        # Corrupt every entry on disk.
        for path in store._dir.glob("*.entry"):
            path.write_bytes(b"garbage")
        cold = Session(store=ArtifactStore(tmp_path))
        compiled = cold.lower(source, "cpu", lower_to_scf=True)
        assert compiled.artifact is not None
        stats = cold.cache_stats
        assert stats["misses"] == 1  # recompiled
        assert stats["disk_hits"] == 0

    def test_an_artifact_that_cannot_be_encoded_is_a_write_error(
            self, tmp_path, monkeypatch):
        source = gauss_seidel.generate_source(6)
        key, artifact, _ = _compile_artifact(source, "cpu")
        # An op whose operand is defined outside it gives that value no id.
        used = next(op for op in artifact.fir_module.walk() if op.operands)
        monkeypatch.setattr(artifact, "fir_module", used)
        store = ArtifactStore(tmp_path)
        assert store.save(key, artifact) is False
        assert store.stats["write_errors"] == 1 and len(store) == 0

    def test_invalid_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ArtifactStore(tmp_path, max_bytes=0)

    @pytest.mark.parametrize("max_bytes", [0, -1, True, 2.5, "10"])
    def test_a_byte_cap_is_checked_not_coerced(self, tmp_path, max_bytes):
        with pytest.raises(OptionError, match=r"max_bytes must be an integer"):
            ArtifactStore(tmp_path, max_bytes=max_bytes)


class TestConcurrentWriters:
    def test_racing_writers_same_key_leave_a_loadable_entry(self, tmp_path):
        source = pw_advection.generate_source(6)
        key, artifact, options = _compile_artifact(
            source, "cpu", lower_to_scf=True)
        store = ArtifactStore(tmp_path)
        barrier = threading.Barrier(8)
        failures = []

        def write():
            barrier.wait()
            try:
                assert store.save(key, artifact)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=write) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert len(store) == 1
        loaded = store.load(key)
        assert loaded is not None
        # No temp files left behind by the racing writers.
        assert not list(store._dir.glob("*.tmp"))

    def test_concurrent_reader_during_write_never_crashes(self, tmp_path):
        source = gauss_seidel.generate_source(6)
        key, artifact, options = _compile_artifact(source, "cpu")
        store = ArtifactStore(tmp_path)
        stop = threading.Event()
        failures = []

        def reader():
            while not stop.is_set():
                try:
                    store.load(key)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)
                    return

        t = threading.Thread(target=reader)
        t.start()
        for _ in range(10):
            store.save(key, artifact)
        stop.set()
        t.join()
        assert not failures


class TestLRUEviction:
    def _save_n(self, store, n, backend="cpu"):
        keys = []
        for i in range(n):
            source = gauss_seidel.generate_source(6, name=f"kernel_{i}")
            key, artifact, options = _compile_artifact(source, backend)
            store.save(key, artifact)
            keys.append((key, source, options))
        return keys

    def test_evicts_least_recently_used_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = self._save_n(store, 3)
        # Age the entries deterministically: keys[0] oldest ... keys[2]
        # newest, then touch keys[0] by reading it (a hit is a use).
        for age, (key, _, _) in enumerate(keys):
            os.utime(_entry_path(store, key), (1000.0 + age, 1000.0 + age))
        store.load(keys[0][0])

        # Cap so exactly one entry must go: keys[1] is now the LRU.
        sizes = {digest: size for digest, size, _ in store.entries()}
        store.max_bytes = sum(sizes.values()) - 1
        store._evict_to_cap()
        assert store.stats["evictions"] == 1
        remaining = {digest for digest, _, _ in store.entries()}
        assert key_digest(keys[1][0]) not in remaining
        assert key_digest(keys[0][0]) in remaining
        assert key_digest(keys[2][0]) in remaining

    def test_clear_deletes_every_entry_and_keeps_the_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        keys = self._save_n(store, 2)
        key, source, options = keys[0]
        assert store.load(key) is not None
        counters = store.stats
        store.clear()
        assert len(store) == 0
        assert list(store._dir.iterdir()) == []
        assert store.stats == counters
        assert store.load(key) is None
        assert store.stats["misses"] == counters["misses"] + 1

    def test_eviction_after_save_respects_cap(self, tmp_path):
        probe = ArtifactStore(tmp_path / "probe")
        self._save_n(probe, 1)
        entry_bytes = probe.total_bytes()

        store = ArtifactStore(tmp_path / "capped",
                              max_bytes=int(entry_bytes * 2.5))
        keys = self._save_n(store, 4)
        assert store.total_bytes() <= store.max_bytes
        assert store.stats["evictions"] >= 1
        # The newest write always survives its own eviction pass.
        newest = key_digest(keys[-1][0])
        assert newest in {digest for digest, _, _ in store.entries()}

    def test_evicted_entry_is_a_safe_miss_then_recompile(self, tmp_path):
        source = gauss_seidel.generate_source(6)
        store = ArtifactStore(tmp_path, max_bytes=1)
        session = Session(store=store)
        session.lower(source, "cpu")
        # The cap is below one artifact: the write happened, then the entry
        # was evicted.  A fresh process misses and recompiles.
        cold = Session(store=ArtifactStore(tmp_path, max_bytes=1))
        cold.lower(source, "cpu")
        assert cold.cache_stats["misses"] == 1
        assert cold.cache_stats["disk_hits"] == 0

    def test_same_mtime_eviction_is_deterministic(self, tmp_path):
        # Coarse filesystem clocks routinely stamp several entries with one
        # mtime; eviction used to fall back to directory-enumeration order.
        # The digest tiebreak makes the victim a pure function of the keys.
        def populate(root):
            store = ArtifactStore(root)
            keys = self._save_n(store, 3)
            for key, _, _ in keys:
                os.utime(_entry_path(store, key), (1000.0, 1000.0))
            return store, keys

        survivors = []
        for attempt in range(2):
            store, keys = populate(tmp_path / f"run{attempt}")
            sizes = {digest: size for digest, size, _ in store.entries()}
            store.max_bytes = sum(sizes.values()) - 1
            store._evict_to_cap()
            assert store.stats["evictions"] == 1
            survivors.append(sorted(d for d, _, _ in store.entries()))
            # entries() itself lists the tied entries digest-ordered.
            listed = [d for d, _, _ in store.entries()]
            assert listed == sorted(listed)
            # The victim is the lexicographically smallest digest.
            victim = min(key_digest(key) for key, _, _ in keys)
            assert victim not in set(listed)
        assert survivors[0] == survivors[1]


class TestHostilePayload:
    """The entry is input too.  Every prefix (at a stride) of a stored PW
    gpu-scf body and ``--fuzz-seeds`` x 20 seeded byte mutations of it, each
    re-sealed so the decoder meets it, load as a counted corrupt miss or as
    modules that verify and reprint; ``--fuzz-seeds`` x 20 seeded byte
    mutations of the header line load as a counted miss.  None raises out
    of ``ArtifactStore.load``."""

    ALPHABET = b'0123456789-,[]{}":. aefilnrstu\\%!<>x'

    @pytest.fixture(scope="class")
    def entry(self, tmp_path_factory):
        """The stored entry's bytes, and ``load(data)``: the store counter
        ``data``, written as the entry, moves besides ``misses`` —
        ``"hits"`` once its modules verify and reprint, else
        ``"corrupt_entries"`` or ``"version_mismatches"``."""
        source = pw_advection.generate_source(8)
        key, artifact, options = _compile_artifact(source, "gpu",
                                                   lower_to_scf=True)
        store = ArtifactStore(tmp_path_factory.mktemp("hostile"))
        assert store.save(key, artifact)
        path = _entry_path(store, key)

        def load(data):
            path.write_bytes(data)   # a corrupt miss deleted it
            before = store.stats
            artifact = store.load(key)
            moved = {name for name, count in store.stats.items()
                     if count != before[name]}
            if artifact is not None:
                assert moved == {"hits"}
                for module in artifact.modules:
                    module.verify()
                    print_module(module)
                return "hits"
            (counter,) = moved - {"misses"}
            assert moved == {"misses", counter}
            return counter

        return path.read_bytes(), load

    def _mutations(self, data, fuzz_seeds):
        """``fuzz_seeds`` x 20 seeded one-byte changes of ``data``."""
        for seed in range(fuzz_seeds):
            rng = random.Random(seed)
            for _ in range(20):
                at = rng.randrange(len(data))
                byte = data[at]
                while byte == data[at]:
                    byte = rng.choice(self.ALPHABET) if rng.random() < 0.9 \
                        else rng.randrange(256)
                yield data[:at] + bytes([byte]) + data[at + 1:]

    def test_the_stored_entry_itself_loads(self, entry):
        stored, load = entry
        assert load(stored) == "hits"

    def test_every_prefix_of_the_body(self, entry, fuzz_seeds):
        stored, load = entry
        header, body = _split(stored)
        stride = 7 if fuzz_seeds >= 100 else 97
        for end in range(0, len(body) - 1, stride):
            assert load(_sealed(header, body[:end])) == "corrupt_entries"

    def test_seeded_byte_mutations_of_the_body(self, entry, fuzz_seeds):
        stored, load = entry
        header, body = _split(stored)
        loaded = 0
        for mutated in self._mutations(body, fuzz_seeds):
            counter = load(_sealed(header, mutated))
            assert counter in ("hits", "corrupt_entries")
            loaded += counter == "hits"
        # Some mutations (a digit of an id, a letter of a hint) still decode.
        assert loaded > 0

    def test_seeded_byte_mutations_of_the_header(self, entry, fuzz_seeds):
        """The checksum seals the header too: a changed byte of the key, the
        metadata or the checksum itself is never a hit."""
        stored, load = entry
        header, _, body = stored.partition(b"\n")
        for mutated in self._mutations(header, fuzz_seeds):
            assert load(mutated + b"\n" + body) != "hits"

    @staticmethod
    def _with_module_attribute(payload, spelling):
        """``payload`` with one more attribute on the last module op,
        spelled ``spelling``."""
        tables = json.loads(payload)
        table = tables[-1]
        table["op"][3].append(["extra", len(table["attrs"])])
        table["attrs"].append(spelling)
        return json.dumps(tables, separators=(",", ":")).encode("utf-8")

    @pytest.mark.parametrize("spelling", [
        "dense<[1.0]> : tensor<1xf64>", "[1 : i64, true]", "{a = none}"])
    def test_a_leaf_no_compile_builds_is_a_corrupt_miss(self, entry, spelling):
        stored, load = entry
        header, body = _split(stored)
        assert load(_sealed(header, self._with_module_attribute(
            body, "1 : i64"))) == "hits"
        assert load(_sealed(header, self._with_module_attribute(
            body, spelling))) == "corrupt_entries"
