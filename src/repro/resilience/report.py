"""Recovery accounting: what was injected, what was survived, and how.

Every recovering component keeps plain integer counters while it runs (the
communicator's retry/retransmit counts, the device pool's degradation
rungs, the session's compile retries); a :class:`RecoveryReport` is where
those counters meet the injector's record of *injected* faults, so one
object answers the chaos question: were all injected faults detected and
recovered, and by which mechanism?  Rendered as an aligned text table by
:func:`repro.harness.recovery_report_table`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class RecoveryReport:
    """Counters for one run (or one merged chaos campaign).

    ``injected`` counts faults by kind as the injector fires them
    (``drop``/``delay``/``duplicate``/``corrupt``/``crash``/``alloc``/
    ``compile``); the mechanism counters below count the recovery work the
    runtime actually performed.  ``unrecovered`` counts faults that
    exhausted their recovery budget — a chaos run is clean only when it is
    zero *and* no divergence was found.
    """

    injected: Dict[str, int] = field(default_factory=dict)
    #: Communicator mechanisms.
    receive_retries: int = 0
    retransmissions: int = 0
    duplicates_dropped: int = 0
    corruptions_detected: int = 0
    delays_released: int = 0
    #: Checkpoint/restart mechanisms.
    checkpoint_saves: int = 0
    checkpoint_restores: int = 0
    rank_respawns: int = 0
    crashes_detected: int = 0
    #: GPU degradation ladder rungs.
    oom_detected: int = 0
    oom_evictions: int = 0
    oom_host_staged: int = 0
    scalar_fallbacks: int = 0
    #: Session compile resilience.
    compile_retries: int = 0
    compiles_quarantined: int = 0
    quarantine_hits: int = 0
    #: Faults that defeated every recovery mechanism.
    unrecovered: int = 0
    #: Human-readable event trail (bounded by the caller's appetite).
    events: List[str] = field(default_factory=list)

    _COUNTER_FIELDS = (
        "receive_retries", "retransmissions", "duplicates_dropped",
        "corruptions_detected", "delays_released", "checkpoint_saves",
        "checkpoint_restores", "rank_respawns", "crashes_detected",
        "oom_detected", "oom_evictions", "oom_host_staged",
        "scalar_fallbacks", "compile_retries", "compiles_quarantined",
        "quarantine_hits", "unrecovered",
    )

    @property
    def faults_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def ok(self) -> bool:
        """No fault defeated its recovery path."""
        return self.unrecovered == 0

    def record_injected(self, kind: str, detail: str = "") -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        if detail:
            self.events.append(f"injected {kind}: {detail}")

    def record_event(self, message: str) -> None:
        self.events.append(message)

    def add_counters(self, counters: Dict[str, int]) -> None:
        """Fold a component's stats dict into the matching counters; unknown
        keys are ignored so components can keep extra private stats."""
        for name in self._COUNTER_FIELDS:
            if name in counters:
                setattr(self, name, getattr(self, name) + int(counters[name]))

    def merge(self, other: "RecoveryReport") -> None:
        for kind, count in other.injected.items():
            self.injected[kind] = self.injected.get(kind, 0) + count
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.events.extend(other.events)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"injected": dict(self.injected)}
        for name in self._COUNTER_FIELDS:
            data[name] = getattr(self, name)
        return data

    def summary_line(self) -> str:
        return (f"{self.faults_injected} faults injected, "
                f"{self.unrecovered} unrecovered "
                f"(retries={self.receive_retries} "
                f"retransmits={self.retransmissions} "
                f"restores={self.checkpoint_restores} "
                f"degradations={self.oom_evictions + self.oom_host_staged} "
                f"compile_retries={self.compile_retries})")


class ReportSink:
    """Thread-safe shared report: rank tasks, pool callbacks and the session
    may record concurrently during one run."""

    def __init__(self, report: RecoveryReport = None):
        self.report = report if report is not None else RecoveryReport()
        self._lock = threading.Lock()

    def record_injected(self, kind: str, detail: str = "") -> None:
        with self._lock:
            self.report.record_injected(kind, detail)

    def record_event(self, message: str) -> None:
        with self._lock:
            self.report.record_event(message)

    def add_counters(self, counters: Dict[str, int]) -> None:
        with self._lock:
            self.report.add_counters(counters)

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self.report, name, getattr(self.report, name) + amount)


__all__ = ["RecoveryReport", "ReportSink"]
