"""``repro.serve`` — compilation as a service.

Two layers promote the in-process :class:`repro.api.Session` memo dict to a
shared, concurrent serving platform (ROADMAP item 1, the "millions of users"
move):

* :class:`ArtifactStore` (:mod:`repro.serve.store`) — a content-addressed
  **on-disk** artifact cache keyed by the session's own ``(source
  fingerprint, backend, frozen options)`` triple, persisting each artifact
  as one file: a JSON header line, then one JSON op table per module
  (:mod:`repro.ir.table`).  One atomic write per entry, checksum-verified
  reads (corruption is a miss, never a crash), a versioned format and an LRU
  size cap.  Attach one via ``Session(store=ArtifactStore(path))`` and warm
  processes skip every lower a previous process already did.
* :class:`CompileService` (:mod:`repro.serve.service`) — a concurrent
  compile/run front door over a session, which lowers each distinct key
  once however many requests race it; the service itself only deduplicates
  admitted compile requests, bounds admission with typed
  :class:`ServiceRejected` backpressure, enforces per-request timeouts
  (:class:`ServiceTimeout`) and snapshots a :class:`ServiceMetrics` rendered
  by :func:`repro.harness.service_metrics_table`.

Quickstart::

    from repro.serve import ArtifactStore, CompileService

    with CompileService(store=ArtifactStore("~/.cache/repro")) as service:
        compiled = service.compile(source, "gpu")
        service.run(source, "gauss_seidel", [field], backend="gpu",
                    execution_mode="vectorize")
        print(service.metrics().to_dict())
"""

from __future__ import annotations

from .store import (
    STORE_FORMAT_VERSION,
    ArtifactStore,
    deserialize_artifact,
    key_digest,
    serialize_artifact,
)
from .service import (
    CompileService,
    ServiceMetrics,
    ServiceRejected,
    ServiceTimeout,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "ArtifactStore",
    "key_digest",
    "serialize_artifact",
    "deserialize_artifact",
    "CompileService",
    "ServiceMetrics",
    "ServiceRejected",
    "ServiceTimeout",
]
