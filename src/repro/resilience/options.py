"""Recovery policy knobs, passed per run as ``plan.run(..., resilience=...)``.

``ResilienceOptions`` is runtime-only in the same sense as ``threads``: it
never enters the session cache key, because it changes how a run survives
faults, not what the compiled artifact computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .faults import FaultPlan, check_count


class ResilienceError(ValueError):
    """Invalid resilience configuration."""


@dataclass(frozen=True)
class ResilienceOptions:
    """Recovery policy for one distributed run.

    ``max_restarts`` bounds how many rollbacks a run may perform before
    giving up (0 = fail fast, and no checkpoint is taken; otherwise a
    checkpoint is taken at every iteration boundary).  ``plan`` optionally
    attaches a :class:`FaultPlan` so tests and chaos runs configure
    injection and recovery in one object.  The communicator's receive
    retry budget and backoff are constants of
    :mod:`repro.runtime.mpi_runtime`.
    """

    max_restarts: int = 3
    plan: Optional[FaultPlan] = field(default=None)

    def __post_init__(self) -> None:
        check_count("max_restarts", self.max_restarts, error=ResilienceError)
        if self.plan is not None and not isinstance(self.plan, FaultPlan):
            raise ResilienceError(
                f"plan must be a FaultPlan, got {type(self.plan).__name__}")


__all__ = ["ResilienceOptions", "ResilienceError"]
