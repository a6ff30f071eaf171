"""Content-addressed on-disk artifact store.

The :class:`repro.api.Session` cache is an in-process memo dict: every fresh
process re-runs discovery/extraction/lowering for every artifact it touches.
The :class:`ArtifactStore` promotes that cache to disk so *processes* share
compiles: an artifact is keyed by the same ``(source fingerprint, backend
name, frozen-options cache key)`` triple the session uses, persisted as
printed-IR text (reloaded through the existing printer→parser round-trip,
which is property-tested to be stable) plus a JSON metadata sidecar.

Design constraints, in order:

* **Concurrent writers are safe.**  Every file lands via temp-file +
  ``os.replace`` (atomic on POSIX), with unique temp names per
  process/thread, so a reader never observes a half-written entry and two
  processes racing the same key simply last-write-win equivalent content.
* **Corruption is a miss, never a crash.**  The metadata sidecar records a
  sha256 checksum of the IR payload; a truncated IR file, a bad checksum, an
  unparseable sidecar, a parse error in the IR itself or a module that fails
  verification all count as ``corrupt`` misses, the entry is deleted
  best-effort, and the client recompiles.
* **The format is versioned.**  ``STORE_FORMAT_VERSION`` mismatches are
  misses (counted separately), so a store written by a future layout never
  feeds garbage into an old reader.
* **Bounded size.**  ``max_bytes`` caps the store; eviction is LRU by
  sidecar mtime (reads touch the sidecar), oldest first.

The store deliberately persists no runtime state: options and source are
supplied by the caller at load time (the session already holds both), and
``pass_statistics`` stay empty on a reloaded artifact — the passes did not
run in this process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..api.artifact import CompiledArtifact
from ..dialects.builtin import ModuleOp
from ..ir.context import default_context
from ..ir.parser import parse_module
from ..ir.printer import print_module

#: On-disk layout version; bump on any incompatible change.  A mismatched
#: entry is a (counted) miss, never an error.
STORE_FORMAT_VERSION = 2

#: Separator between the FIR module and the stencil module inside one ``.ir``
#: payload.  The printer only emits generic-syntax operations, so this line
#: can never appear inside printed IR.
_MODULE_SEPARATOR = "//=== repro.serve stencil-module ===//"

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


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def serialize_artifact(artifact: CompiledArtifact) -> Tuple[str, Dict]:
    """Render an artifact to its persistent form: the IR payload text and
    the JSON-ready metadata dict (sans checksum/size, added at write time)."""
    sections = [print_module(artifact.fir_module)]
    if artifact.stencil_module is not None:
        sections.append(print_module(artifact.stencil_module))
    payload = ("\n" + _MODULE_SEPARATOR + "\n").join(sections)
    meta = {
        "backend": artifact.backend,
        "has_stencil_module": artifact.stencil_module is not None,
        "discovered_stencils": dict(artifact.discovered_stencils),
        "extracted_functions": list(artifact.extracted_functions),
    }
    return payload, meta


def deserialize_artifact(payload: str, meta: Dict, *, source: str,
                         backend: str, options) -> CompiledArtifact:
    """Rebuild a :class:`CompiledArtifact` from its persistent form.

    Raises on any malformation (parse error, an operation this build does
    not register, wrong module count, failed verification) — the store
    catches and converts to a miss.
    """
    sections = payload.split("\n" + _MODULE_SEPARATOR + "\n")
    expected = 2 if meta["has_stencil_module"] else 1
    if len(sections) != expected:
        raise ValueError(
            f"expected {expected} IR section(s), found {len(sections)}"
        )
    modules: List[ModuleOp] = []
    for text in sections:
        # Strict: an op a later build deleted must fail here, as a corrupt
        # miss, not as a missing interpreter handler in the first run.
        context = default_context()
        context.allow_unregistered = False
        module = parse_module(text, context)
        if not isinstance(module, ModuleOp):
            raise ValueError(f"payload section is not a module: {module.name}")
        module.verify()
        modules.append(module)
    return CompiledArtifact(
        source=source,
        backend=backend,
        options=options,
        fir_module=modules[0],
        stencil_module=modules[1] if len(modules) == 2 else None,
        discovered_stencils={
            str(k): int(v) for k, v in meta["discovered_stencils"].items()
        },
        extracted_functions=[str(f) for f in meta["extracted_functions"]],
    )


class ArtifactStore:
    """A content-addressed, size-capped, crash-safe artifact store on disk.

    One entry per key, two files per entry under ``root/v2/``:

    * ``<digest>.ir``   — printed-IR payload (FIR module, then the stencil
      module separated by a sentinel line);
    * ``<digest>.json`` — metadata sidecar: format version, the human-readable
      key components, the payload checksum and size, and artifact stats
      (stencil counts, extracted function names).

    The sidecar is the commit point: readers load it first, then the payload,
    and accept the entry only if the checksum matches.  Its mtime doubles as
    the LRU clock (touched on every hit).
    """

    def __init__(self, root, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
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

    # -- paths ----------------------------------------------------------------

    def _paths(self, digest: str) -> Tuple[Path, Path]:
        return self._dir / f"{digest}.ir", self._dir / f"{digest}.json"

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self._stats[counter] += by

    # -- read path -------------------------------------------------------------

    def load(self, key: Tuple, *, source: str, backend: str,
             options) -> Optional[CompiledArtifact]:
        """The artifact stored under ``key``, or ``None`` (a safe miss).

        Every failure mode — absent entry, unreadable or unparseable sidecar,
        version mismatch, checksum mismatch (truncation, corruption), IR
        parse or verification failure — returns ``None``; corrupt entries are
        additionally deleted best-effort so they stop costing read attempts.
        """
        digest = key_digest(key)
        ir_path, meta_path = self._paths(digest)
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            if meta_path.exists():
                self._bump("corrupt_entries")
                self._delete_entry(digest)
            self._bump("misses")
            return None
        if meta.get("format_version") != STORE_FORMAT_VERSION:
            self._bump("version_mismatches")
            self._bump("misses")
            return None
        try:
            payload = ir_path.read_text(encoding="utf-8")
        except OSError:
            self._bump("corrupt_entries")
            self._delete_entry(digest)
            self._bump("misses")
            return None
        if _checksum(payload) != meta.get("checksum"):
            self._bump("corrupt_entries")
            self._delete_entry(digest)
            self._bump("misses")
            return None
        try:
            artifact = deserialize_artifact(
                payload, meta["artifact"],
                source=source, backend=backend, options=options,
            )
        except Exception:
            self._bump("corrupt_entries")
            self._delete_entry(digest)
            self._bump("misses")
            return None
        self._touch(meta_path)
        self._bump("hits")
        return artifact

    # -- write path ------------------------------------------------------------

    def save(self, key: Tuple, artifact: CompiledArtifact) -> bool:
        """Persist ``artifact`` under ``key``; returns False on I/O failure.

        Write order is payload-then-sidecar, each via an atomic rename, so a
        concurrent reader either sees the complete entry or a checksum
        mismatch (= miss).  Never raises: a store that cannot write degrades
        the system to compile-every-process, not to broken.
        """
        digest = key_digest(key)
        ir_path, meta_path = self._paths(digest)
        payload, artifact_meta = serialize_artifact(artifact)
        fingerprint, backend, options_key = key
        meta = {
            "format_version": STORE_FORMAT_VERSION,
            "key": {
                "source_fingerprint": fingerprint,
                "backend": backend,
                "options": repr(options_key),
            },
            "checksum": _checksum(payload),
            "payload_bytes": len(payload.encode("utf-8")),
            "artifact": artifact_meta,
        }
        try:
            self._atomic_write(ir_path, payload)
            self._atomic_write(meta_path, json.dumps(meta, indent=1, sort_keys=True))
        except OSError:
            self._bump("write_errors")
            return False
        self._bump("writes")
        if self.max_bytes is not None:
            self._evict_to_cap(keep=digest)
        return True

    def _atomic_write(self, path: Path, text: str) -> None:
        temp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}"
            f".{next(_temp_counter)}.tmp"
        )
        temp.write_text(text, encoding="utf-8")
        os.replace(temp, path)

    @staticmethod
    def _touch(path: Path) -> None:
        try:
            os.utime(path)
        except OSError:
            pass

    # -- eviction / management -------------------------------------------------

    def entries(self) -> List[Tuple[str, int, float]]:
        """Current entries as ``(digest, total bytes, sidecar mtime)``,
        least-recently-used first.

        Coarse filesystem timestamps routinely give several entries the same
        mtime; the digest is the tiebreak, so the ordering — and therefore
        which entry an over-cap store evicts — is deterministic across runs
        and platforms instead of directory-enumeration order."""
        found = []
        for meta_path in self._dir.glob("*.json"):
            digest = meta_path.stem
            ir_path = self._dir / f"{digest}.ir"
            try:
                stat = meta_path.stat()
                size = stat.st_size + (
                    ir_path.stat().st_size if ir_path.exists() else 0
                )
            except OSError:
                continue
            found.append((digest, size, stat.st_mtime))
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
        for path in self._paths(digest):
            try:
                path.unlink()
            except OSError:
                pass

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
