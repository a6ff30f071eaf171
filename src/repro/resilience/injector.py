"""The live side of a :class:`FaultPlan`: decide, at each instrumented
runtime point, whether the plan says this event should fail.

A :class:`FaultInjector` is handed to the components it targets (the
communicator's ``fault_hook``, the device pool's ``alloc_hook``, the
session's ``compile_hook``, the executor's crash schedule) and consulted
inline.  It is thread-safe — rank tasks fire sends concurrently — and
stateful: each comm fault fires exactly once, alloc/compile faults count
global attempt indices.  Everything it injects is recorded on its
:class:`~repro.resilience.report.RecoveryReport` so the chaos runner can match
injections against recoveries.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Set

from .faults import FaultPlan
from .report import RecoveryReport


class FaultInjector:
    """Consults a :class:`FaultPlan` and tracks which faults have fired."""

    def __init__(self, plan: FaultPlan, report: Optional[RecoveryReport] = None):
        self.plan = plan
        self.report = report if report is not None else RecoveryReport()
        self._lock = threading.Lock()
        #: Per-comm-fault count of sends matching that fault's filter.
        self._match_counts: Dict[int, int] = {}
        self._fired_comm: Set[int] = set()
        self._fired_crashes: Set[int] = set()
        self._alloc_attempts = 0
        self._compile_attempts = 0

    # -- communicator ------------------------------------------------------

    def on_send(self, source: int, dest: int, tag: int) -> Optional[str]:
        """Return a fault kind to apply to this send, or None.

        Each plan entry fires on the Nth send matching its filter and then
        never again; when several faults would fire on the same send, the
        first unfired one in plan order wins and the others keep waiting
        for their own later matches.
        """
        with self._lock:
            chosen: Optional[str] = None
            for i, fault in enumerate(self.plan.comm_faults):
                if not fault.matches(source, dest, tag):
                    continue
                count = self._match_counts.get(i, 0)
                self._match_counts[i] = count + 1
                if (chosen is None and i not in self._fired_comm
                        and count == fault.match_index):
                    self._fired_comm.add(i)
                    chosen = fault.kind
        if chosen is not None:
            self.report.record_injected(chosen)
        return chosen

    # -- distributed executor ----------------------------------------------

    def should_crash(self, rank: int, iteration: int) -> bool:
        """True once per plan entry when ``rank`` reaches ``iteration``."""
        with self._lock:
            for i, crash in enumerate(self.plan.rank_crashes):
                if (i not in self._fired_crashes and crash.rank == rank
                        and crash.iteration == iteration):
                    self._fired_crashes.add(i)
                    break
            else:
                return False
        self.report.record_injected("crash")
        return True

    # -- device memory pool ------------------------------------------------

    def on_device_alloc(self) -> bool:
        """True when the plan fails this (globally indexed) allocation."""
        with self._lock:
            index = self._alloc_attempts
            self._alloc_attempts += 1
            fail = any(f.index <= index < f.index + f.count
                       for f in self.plan.alloc_faults)
        if fail:
            self.report.record_injected("alloc")
        return fail

    # -- session compiles --------------------------------------------------

    def on_compile(self) -> bool:
        """True when the plan fails this (globally indexed) compile."""
        with self._lock:
            index = self._compile_attempts
            self._compile_attempts += 1
            fail = any(f.index <= index < f.index + f.count
                       for f in self.plan.compile_faults)
        if fail:
            self.report.record_injected("compile")
        return fail


class InjectedFault(RuntimeError):
    """Raised by injection hooks that simulate hard failures (a transient
    compiler crash, a simulated rank process death)."""


__all__ = ["FaultInjector", "InjectedFault"]
