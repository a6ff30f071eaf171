#!/usr/bin/env python3
"""Compilation as a service: a persistent artifact store + concurrent clients.

Demonstrates the ``repro.serve`` subsystem end to end:

1. a :class:`CompileService` backed by an on-disk :class:`ArtifactStore`
   serves a small fleet of concurrent client threads running both benchmark
   apps — the session lowers each key once, so the whole fleet performs
   exactly one backend lower per distinct (source, backend, options)
   artifact;
2. the process-shared half: run the script a second time with the same
   ``--store`` directory and every compile reloads from disk (zero lowers),
   which is also how the CI cold-start smoke asserts the warm-process
   speedup.

Usage::

    PYTHONPATH=src python examples/serve_quickstart.py --store /tmp/repro-store
    PYTHONPATH=src python examples/serve_quickstart.py --store /tmp/repro-store --expect-warm

``--expect-warm`` exits non-zero if any backend lower happened, proving the
store served every artifact.
"""

import argparse
import sys
import tempfile
import threading
import time

from repro.apps import gauss_seidel, pw_advection
from repro.harness import service_metrics_table
from repro.serve import ArtifactStore, CompileService

N_CLIENTS = 8

WORKLOADS = [
    ("gauss_seidel/cpu", gauss_seidel.generate_source(16, niters=2), "cpu", {}),
    ("pw_advection/openmp", pw_advection.generate_source(16), "openmp", {}),
]


def fresh_args(label):
    if label.startswith("gauss_seidel"):
        return "gauss_seidel", [gauss_seidel.initial_condition(16)]
    u, v, w, su, sv, sw = pw_advection.initial_fields(16)
    return "pw_advection", [u, v, w, su, sv, sw]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="artifact store directory (default: a fresh "
                             "temp dir, i.e. a cold start)")
    parser.add_argument("--expect-warm", action="store_true",
                        help="fail unless every artifact came from the "
                             "store (zero backend lowers)")
    args = parser.parse_args(argv)

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-store-")
    store = ArtifactStore(store_dir)
    started = time.perf_counter()

    with CompileService(store=store, workers=4, max_queue=64) as service:
        failures = []

        def client(client_id):
            try:
                for label, source, backend, options in WORKLOADS:
                    entry, call_args = fresh_args(label)
                    service.run(source, entry, call_args, backend=backend,
                                execution_mode="vectorize", timeout=120,
                                **options)
            except BaseException as exc:
                failures.append((client_id, exc))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(N_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - started
        metrics = service.metrics()

    if failures:
        for client_id, exc in failures:
            print(f"client {client_id} failed: {exc!r}", file=sys.stderr)
        return 1

    print(f"store               : {store_dir}")
    print(f"clients x workloads : {N_CLIENTS} x {len(WORKLOADS)} "
          f"({metrics.submitted_runs} requests in {elapsed:.2f}s)")
    print(f"backend lowers      : {metrics.misses} "
          f"(disk hits {metrics.disk_hits}, memory hits {metrics.memory_hits}, "
          f"coalesced {metrics.coalesced})")
    print()
    print(service_metrics_table(metrics))

    if args.expect_warm and metrics.misses > 0:
        print(f"\nexpected a warm store but {metrics.misses} lower(s) "
              f"happened", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
