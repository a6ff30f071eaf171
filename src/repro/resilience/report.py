"""Recovery accounting: what was injected, what was survived, and how.

Every recovering component keeps plain integer counters while it runs (the
communicator's retry/retransmit counts, the executor's restores, the
device's host stagings); a :class:`RecoveryReport` is where those counters
meet the injector's record of *injected* faults, so one object answers the
chaos question: were all injected faults detected and recovered, and by
which mechanism?  Rendered as an aligned text table by
:func:`repro.harness.recovery_report_table`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class RecoveryReport:
    """Counters for one run (or one merged chaos campaign), thread-safe to
    record into: rank tasks and pool callbacks may record concurrently
    during one run.

    ``injected`` counts faults by kind as the injector fires them
    (``drop``/``delay``/``duplicate``/``corrupt``/``crash``); the mechanism
    counters below count the recovery work the runtime actually performed
    (a device out-of-memory is a real pool miss, counted by
    ``oom_detected``, not an injection).  ``unrecovered`` counts faults that
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
    #: GPU graceful degradation.
    oom_detected: int = 0
    oom_host_staged: int = 0
    scalar_fallbacks: int = 0
    #: Faults that defeated every recovery mechanism.
    unrecovered: int = 0
    #: Held by the three recording methods; not part of the report's value.
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                  compare=False, repr=False)

    @property
    def faults_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def ok(self) -> bool:
        """No fault defeated its recovery path."""
        return self.unrecovered == 0

    def record_injected(self, kind: str) -> None:
        with self._lock:
            self.injected[kind] = self.injected.get(kind, 0) + 1

    def add_counters(self, counters: Dict[str, int]) -> None:
        """Fold a component's stats dict into the matching counters; unknown
        keys are ignored so components can keep extra private stats."""
        with self._lock:
            for name in self._COUNTER_FIELDS:
                if name in counters:
                    setattr(self, name, getattr(self, name) + int(counters[name]))

    def bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    def merge(self, other: "RecoveryReport") -> None:
        for kind, count in other.injected.items():
            self.injected[kind] = self.injected.get(kind, 0) + count
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {"injected": dict(self.injected)}
        for name in self._COUNTER_FIELDS:
            data[name] = getattr(self, name)
        return data


#: The mechanism counters: every int field, in declaration order.
RecoveryReport._COUNTER_FIELDS = tuple(
    f.name for f in fields(RecoveryReport) if f.type in ("int", int))


__all__ = ["RecoveryReport"]
