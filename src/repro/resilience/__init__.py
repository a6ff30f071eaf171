"""Deterministic fault injection and recovery.

The package has three halves mirroring the tentpole: *plans* (what fails,
when — :class:`FaultPlan` and its fault dataclasses), the *injector* that
executes a plan against live runtime hooks, and the *report* that proves
every injected fault was recovered.  Policy knobs live in
:class:`ResilienceOptions`, accepted by
:meth:`repro.api.CompiledProgram.distribute`.
"""

from .faults import (
    COMM_FAULT_KINDS,
    AllocFault,
    CommFault,
    CompileFault,
    FaultPlan,
    FaultPlanError,
    RankCrash,
)
from .injector import FaultInjector, InjectedFault
from .options import ResilienceError, ResilienceOptions
from .report import RecoveryReport

__all__ = [
    "COMM_FAULT_KINDS",
    "AllocFault",
    "CommFault",
    "CompileFault",
    "FaultPlan",
    "FaultPlanError",
    "RankCrash",
    "FaultInjector",
    "InjectedFault",
    "ResilienceError",
    "ResilienceOptions",
    "RecoveryReport",
]
