"""Recovery policy knobs, surfaced as ``.distribute(..., resilience=...)``.

``ResilienceOptions`` is runtime-only in the same sense as ``threads``: it
never enters the session cache key, because it changes how a run survives
faults, not what the compiled artifact computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .faults import FaultPlan


class ResilienceError(ValueError):
    """Invalid resilience configuration."""


@dataclass(frozen=True)
class ResilienceOptions:
    """Recovery policy for one distributed run.

    ``checkpoint_interval`` is in distributed iterations (1 = checkpoint
    every iteration boundary); ``max_restarts`` bounds how many rollbacks a
    run may perform before giving up (0 = fail fast, and no checkpoint is
    taken); the backoff pair shapes the communicator's receive retry loop.
    ``plan`` optionally attaches a :class:`FaultPlan` so tests and chaos
    runs configure injection and recovery in one object.
    """

    checkpoint_interval: int = 1
    max_restarts: int = 3
    max_receive_retries: int = 8
    backoff_initial: float = 0.005
    backoff_cap: float = 0.05
    plan: Optional[FaultPlan] = field(default=None)

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 1:
            raise ResilienceError(
                "checkpoint_interval must be >= 1, got "
                f"{self.checkpoint_interval}")
        if self.max_restarts < 0:
            raise ResilienceError(
                f"max_restarts must be >= 0, got {self.max_restarts}")
        if self.max_receive_retries < 1:
            raise ResilienceError(
                "max_receive_retries must be >= 1, got "
                f"{self.max_receive_retries}")
        if self.backoff_initial <= 0:
            raise ResilienceError(
                f"backoff_initial must be > 0, got {self.backoff_initial}")
        if self.backoff_cap < self.backoff_initial:
            raise ResilienceError(
                f"backoff_cap ({self.backoff_cap}) must be >= "
                f"backoff_initial ({self.backoff_initial})")
        if self.plan is not None and not isinstance(self.plan, FaultPlan):
            raise ResilienceError(
                f"plan must be a FaultPlan, got {type(self.plan).__name__}")


__all__ = ["ResilienceOptions", "ResilienceError"]
