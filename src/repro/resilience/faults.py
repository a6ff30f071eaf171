"""Deterministic fault plans.

A :class:`FaultPlan` is the resilience analogue of
:class:`repro.fuzz.GeneratorConfig`: a frozen value whose contents fully
determine which runtime faults are injected where.  Replaying a plan
against the same program reproduces exactly the same fault sequence — the
property the chaos fuzz farm and every recovery unit test rely on ("inject
deterministically, demand bitwise-identical recovery", the fuzz farm's
discipline extended from miscompiles to runtime faults).  A chaos
divergence replays by its seed, which draws the same plan again.

Two fault families mirror the two runtime layers whose failures the program
cannot cause itself:

* :class:`CommFault` — drop / delay / duplicate / corrupt the Nth matching
  halo message inside :class:`repro.runtime.SimulatedCommunicator`;
* :class:`RankCrash` — kill one simulated rank at a chosen iteration inside
  :class:`repro.runtime.DistributedExecutor`.

A device out-of-memory needs no injection: a :class:`repro.runtime.SimulatedGPU`
built with a small ``memory_bytes`` misses for real.

``FaultPlan.generate(seed, comm_faults)`` draws the message faults of a
plan from a seed, which is how ``python -m repro.fuzz --chaos`` schedules
them per fuzz case.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Tuple

#: Message-level fault kinds understood by the communicator.
COMM_FAULT_KINDS = ("drop", "delay", "duplicate", "corrupt")

#: ``FaultPlan.generate`` draws each match index below this.
_MAX_MESSAGE_INDEX = 12


class FaultPlanError(ValueError):
    """An invalid fault description (unknown kind, negative index, ...)."""


def check_count(name: str, value, minimum: int = 0,
                error: type = FaultPlanError) -> None:
    """Raise ``error`` naming ``name`` unless ``value`` is an integer (not a
    bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class CommFault:
    """Perturb the Nth send matching a (source, dest, tag) filter.

    ``-1`` in any filter field matches every value; ``match_index`` counts
    matching sends from 0, so ``CommFault("drop", 3)`` drops the fourth
    message of the run.  Each fault fires exactly once.
    """

    kind: str
    match_index: int
    source: int = -1
    dest: int = -1
    tag: int = -1

    def __post_init__(self) -> None:
        if self.kind not in COMM_FAULT_KINDS:
            raise FaultPlanError(
                f"comm fault kind must be one of {COMM_FAULT_KINDS}, "
                f"got {self.kind!r}"
            )
        check_count("match_index", self.match_index)
        for name in ("source", "dest", "tag"):
            check_count(name, getattr(self, name), minimum=-1)

    def matches(self, source: int, dest: int, tag: int) -> bool:
        return ((self.source < 0 or self.source == source)
                and (self.dest < 0 or self.dest == dest)
                and (self.tag < 0 or self.tag == tag))


@dataclass(frozen=True)
class RankCrash:
    """Crash ``rank`` at the start of distributed iteration ``iteration``."""

    rank: int
    iteration: int

    def __post_init__(self) -> None:
        check_count("rank", self.rank)
        check_count("iteration", self.iteration)


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault schedule for one run."""

    seed: int = 0
    comm_faults: Tuple[CommFault, ...] = ()
    rank_crashes: Tuple[RankCrash, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "comm_faults", tuple(self.comm_faults))
        object.__setattr__(self, "rank_crashes", tuple(self.rank_crashes))

    @classmethod
    def generate(cls, seed: int, comm_faults: int) -> "FaultPlan":
        """A plan of ``comm_faults`` message faults drawn from ``seed``.

        Each draws its kind and match index uniformly, with any-source/dest/
        tag filters, so it fires on whatever traffic the run produces.  The
        same arguments always produce the same plan.
        """
        rng = random.Random(f"FaultPlan:{seed}")
        return cls(seed=seed, comm_faults=tuple(
            CommFault(kind=rng.choice(COMM_FAULT_KINDS),
                      match_index=rng.randrange(_MAX_MESSAGE_INDEX))
            for _ in range(comm_faults)))


__all__ = [
    "COMM_FAULT_KINDS",
    "FaultPlanError",
    "CommFault",
    "RankCrash",
    "FaultPlan",
]
