"""Content-addressed on-disk artifact store.

The :class:`repro.api.Session` cache is an in-process memo dict: every fresh
process re-runs discovery/extraction/lowering for every artifact it touches.
The :class:`ArtifactStore` promotes that cache to disk so *processes* share
compiles: an artifact is keyed by the same ``(source fingerprint, backend
name, frozen-options cache key)`` triple the session uses, and persisted as
one file: a JSON header line, then one JSON op table per module
(:mod:`repro.ir.table`: each distinct type and attribute spelling is parsed
once, the ops are built from data, and no IR text is re-read).

Design constraints, in order:

* **Concurrent writers are safe.**  An entry lands in one temp-file +
  ``os.replace`` (atomic on POSIX), with unique temp names per
  process/thread, so a reader never observes a half-written entry and two
  processes racing the same key simply last-write-win equivalent content.
  The rename is the one commit point: a failed write leaves no file behind.
* **Corruption is a miss, never a crash.**  The header records a sha256
  checksum sealing the body and every other header field; an unreadable
  file, a garbage header, a checksum mismatch (truncation, a flipped byte),
  a table the decoder refuses (an op this build does not register, an id
  out of range, a use before its definition, any malformed shape) or a
  module that fails verification all count as ``corrupt`` misses, the entry
  is deleted best-effort, and the client recompiles.
* **The format is versioned.**  Entries live under ``root/v<version>/``, and
  a ``STORE_FORMAT_VERSION`` mismatch in a header is a miss (counted
  separately, the file left alone), so a store written by another layout
  never feeds garbage into this reader.
* **Bounded size.**  ``max_bytes`` caps the store; eviction is LRU by entry
  mtime (reads touch the entry), oldest first.

An entry is found by its key alone and holds only what was compiled: the
request that names it (source, backend, options) stays with the caller, and
``pass_statistics`` stay empty on a reloaded artifact — the passes did not
run in this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..api.artifact import CompiledArtifact
from ..api.options import require_count
from ..dialects.builtin import ModuleOp
from ..ir.table import decode_module, encode_module

#: On-disk layout version; bump on any incompatible change.  A mismatched
#: entry is a (counted) miss, never an error.
STORE_FORMAT_VERSION = 4

_temp_counter = itertools.count()


def key_digest(key: Tuple) -> str:
    """Stable hex digest of a session cache key.

    ``key`` is the session triple ``(source_fingerprint, backend_name,
    options.cache_key())``; the options component is a tuple of
    ``(field, value)`` pairs over str/bool/int/None/tuple values, whose
    ``repr`` is deterministic across processes.
    """
    fingerprint, backend, options_key = key
    material = f"{fingerprint}\x00{backend}\x00{options_key!r}"
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _dumps(header: Dict) -> bytes:
    return json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def _checksum(header: Dict, body: bytes) -> str:
    """sha256 of ``body`` and of every ``header`` field but the checksum:
    a changed byte anywhere in an entry is a mismatch."""
    fields = {name: value for name, value in header.items()
              if name != "checksum"}
    return hashlib.sha256(_dumps(fields) + b"\n" + body).hexdigest()


def serialize_artifact(artifact: CompiledArtifact) -> Tuple[bytes, Dict]:
    """Render an artifact to its persistent form: the entry body (a JSON
    list of op tables, FIR module first) and the JSON-ready artifact metadata
    its header carries."""
    tables = [encode_module(module) for module in artifact.modules]
    payload = json.dumps(tables, separators=(",", ":")).encode("utf-8")
    meta = {
        "has_stencil_module": artifact.stencil_module is not None,
        "discovered_stencils": dict(artifact.discovered_stencils),
        "extracted_functions": list(artifact.extracted_functions),
    }
    return payload, meta


def deserialize_artifact(payload: bytes, meta: Dict) -> CompiledArtifact:
    """Rebuild a :class:`CompiledArtifact` from its persistent form.

    Raises on any malformation (undecodable JSON, a table the decoder
    refuses, wrong module count, failed verification) — the store catches
    and converts to a miss.
    """
    tables = json.loads(payload)
    expected = 2 if meta["has_stencil_module"] else 1
    if type(tables) is not list or len(tables) != expected:
        raise ValueError(f"expected a list of {expected} op table(s)")
    # An op a later build deleted fails to decode, as a corrupt miss, not as a
    # missing interpreter handler in the first run.
    modules: List[ModuleOp] = []
    for table in tables:
        module = decode_module(table)
        if not isinstance(module, ModuleOp):
            raise ValueError(f"payload table is not a module: {module.name}")
        module.verify()
        modules.append(module)
    return CompiledArtifact(
        fir_module=modules[0],
        stencil_module=modules[1] if len(modules) == 2 else None,
        discovered_stencils={
            str(k): int(v) for k, v in meta["discovered_stencils"].items()
        },
        extracted_functions=[str(f) for f in meta["extracted_functions"]],
    )


class ArtifactStore:
    """A content-addressed, size-capped, crash-safe artifact store on disk.

    One file per key, ``root/v4/<digest>.entry``:

    * line 1, the JSON header: format version, the human-readable key
      components, the checksum, and the artifact metadata (whether there is
      a stencil module, stencil counts, extracted function names);
    * after its newline, the body: a JSON list of op tables (FIR module,
      then the stencil module if there is one).

    A save is one atomic write and a load one read.  The file's mtime is the
    LRU clock (touched on every hit).
    """

    def __init__(self, root, max_bytes: Optional[int] = None):
        if max_bytes is not None:
            require_count("max_bytes", max_bytes)
        self.root = Path(root)
        self.max_bytes = max_bytes
        self._dir = self.root / f"v{STORE_FORMAT_VERSION}"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._stats = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt_entries": 0,
            "version_mismatches": 0,
            "evictions": 0,
            "write_errors": 0,
        }

    def _path(self, digest: str) -> Path:
        return self._dir / f"{digest}.entry"

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._stats[counter] += by

    # -- read path -------------------------------------------------------------

    def load(self, key: Tuple) -> Optional[CompiledArtifact]:
        """The artifact stored under ``key``, or ``None`` (a safe miss).

        Every failure mode — absent entry, unreadable file, garbage header,
        version mismatch, checksum mismatch, a table the decoder refuses or a
        failed verification — returns ``None``; corrupt entries are
        additionally deleted best-effort so they stop costing read attempts,
        and a version-skewed one is left alone.
        """
        digest = key_digest(key)
        path = self._path(digest)
        try:
            header, _, body = path.read_bytes().partition(b"\n")
            meta = json.loads(header)
            if meta["format_version"] != STORE_FORMAT_VERSION:
                self._bump("version_mismatches")
                self._bump("misses")
                return None
            if _checksum(meta, body) != meta["checksum"]:
                raise ValueError("checksum mismatch")
            artifact = deserialize_artifact(body, meta["artifact"])
        except FileNotFoundError:
            self._bump("misses")
            return None
        except Exception:
            self._bump("corrupt_entries")
            self._delete_entry(digest)
            self._bump("misses")
            return None
        self._touch(path)
        self._bump("hits")
        return artifact

    # -- write path ------------------------------------------------------------

    def save(self, key: Tuple, artifact: CompiledArtifact) -> bool:
        """Persist ``artifact`` under ``key``; returns False if it cannot
        be encoded or written.

        The entry is one file written via an atomic rename, so a concurrent
        reader sees the previous entry, the complete new one, or none.
        Never raises: a store that cannot write degrades the system to
        compile-every-process, not to broken.
        """
        digest = key_digest(key)
        fingerprint, backend, options_key = key
        try:
            body, artifact_meta = serialize_artifact(artifact)
            header = {
                "format_version": STORE_FORMAT_VERSION,
                "key": {
                    "source_fingerprint": fingerprint,
                    "backend": backend,
                    "options": repr(options_key),
                },
                "artifact": artifact_meta,
            }
            header["checksum"] = _checksum(header, body)
            self._atomic_write(self._path(digest),
                               _dumps(header) + b"\n" + body)
        except Exception:
            self._bump("write_errors")
            return False
        self._bump("writes")
        if self.max_bytes is not None:
            self._evict_to_cap(keep=digest)
        return True

    def _atomic_write(self, path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` through a temp file and a rename; on any
        failure the temp file is removed and the exception re-raised."""
        temp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}"
            f".{next(_temp_counter)}.tmp"
        )
        try:
            temp.write_bytes(data)
            os.replace(temp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                temp.unlink()
            raise

    @staticmethod
    def _touch(path: Path) -> None:
        with contextlib.suppress(OSError):
            os.utime(path)

    # -- eviction / management -------------------------------------------------

    def entries(self) -> List[Tuple[str, int, float]]:
        """Current entries as ``(digest, bytes, mtime)``, least-recently-used
        first.

        Coarse filesystem timestamps routinely give several entries the same
        mtime; the digest is the tiebreak, so the ordering — and therefore
        which entry an over-cap store evicts — is deterministic across runs
        and platforms instead of directory-enumeration order."""
        found = []
        for path in self._dir.glob("*.entry"):
            try:
                stat = path.stat()
            except OSError:
                continue
            found.append((path.stem, stat.st_size, stat.st_mtime))
        found.sort(key=lambda item: (item[2], item[0]))
        return found

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def _evict_to_cap(self, keep: Optional[str] = None) -> None:
        """Delete least-recently-used entries until under ``max_bytes``.

        The just-written entry (``keep``) is evicted last even if its mtime
        ties with older entries, so a cap smaller than one artifact still
        serves the write that triggered eviction.
        """
        if self.max_bytes is None:
            return
        entries = self.entries()
        total = sum(size for _, size, _ in entries)
        if keep is not None:
            entries.sort(key=lambda item: (item[0] == keep, item[2], item[0]))
        for digest, size, _ in entries:
            if total <= self.max_bytes:
                break
            self._delete_entry(digest)
            self._bump("evictions")
            total -= size

    def _delete_entry(self, digest: str) -> None:
        with contextlib.suppress(OSError):
            self._path(digest).unlink()

    def clear(self) -> None:
        """Delete every entry (counters are preserved)."""
        for digest, _, _ in self.entries():
            self._delete_entry(digest)

    @property
    def stats(self) -> Dict[str, int]:
        """Measured store counters: hits, misses, writes, corrupt entries,
        version mismatches, evictions, write errors."""
        with self._lock:
            return dict(self._stats)

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<ArtifactStore {self.root} entries={len(self)} "
            f"max_bytes={self.max_bytes}>"
        )


__all__ = [
    "STORE_FORMAT_VERSION",
    "key_digest",
    "serialize_artifact",
    "deserialize_artifact",
    "ArtifactStore",
]
