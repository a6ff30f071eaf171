"""Deterministic fault injection and recovery.

The package has three parts: *plans* (which messages and ranks fail, when —
:class:`FaultPlan` and its fault dataclasses), the *injector* that executes
a plan against live runtime hooks, and the *report* that proves every
injected fault was recovered.  Policy knobs live in
:class:`ResilienceOptions`, passed per run as
``plan.run(..., resilience=...)``.
"""

from .faults import (
    COMM_FAULT_KINDS,
    CommFault,
    FaultPlan,
    FaultPlanError,
    RankCrash,
)
from .injector import FaultInjector, InjectedFault
from .options import ResilienceError, ResilienceOptions
from .report import RecoveryReport

__all__ = [
    "COMM_FAULT_KINDS",
    "CommFault",
    "FaultPlan",
    "FaultPlanError",
    "RankCrash",
    "FaultInjector",
    "InjectedFault",
    "ResilienceError",
    "ResilienceOptions",
    "RecoveryReport",
]
