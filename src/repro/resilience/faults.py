"""Deterministic fault plans.

A :class:`FaultPlan` is the resilience analogue of
:class:`repro.fuzz.GeneratorConfig`: a frozen, JSON round-trippable value
whose contents fully determine which runtime faults are injected where.
Replaying a serialized plan against the same program reproduces exactly the
same fault sequence — the property the chaos fuzz farm and every recovery
unit test rely on ("inject deterministically, demand bitwise-identical
recovery", the PR 6 discipline extended from miscompiles to runtime faults).

Four fault families mirror the four runtime layers that can fail:

* :class:`CommFault` — drop / delay / duplicate / corrupt the Nth matching
  halo message inside :class:`repro.runtime.SimulatedCommunicator`;
* :class:`RankCrash` — kill one simulated rank at a chosen iteration inside
  :class:`repro.runtime.DistributedExecutor`;
* :class:`AllocFault` — fail the Nth device allocation of a
  :class:`repro.runtime.DeviceMemoryPool` (transiently, for ``count``
  consecutive attempts);
* :class:`CompileFault` — fail the Nth compile of a
  :class:`repro.api.Session` (``count`` = 1 is transient and recovered by
  the session's single retry; ``count`` >= 2 exhausts the retry and
  quarantines the source).

``FaultPlan.generate(seed, ...)`` draws a randomized-but-deterministic plan
from a seed, which is how ``python -m repro.fuzz --chaos`` schedules faults
per fuzz case.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Message-level fault kinds understood by the communicator.
COMM_FAULT_KINDS = ("drop", "delay", "duplicate", "corrupt")


class FaultPlanError(ValueError):
    """An invalid fault description (unknown kind, negative index, ...)."""


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
        if self.match_index < 0:
            raise FaultPlanError(
                f"match_index must be >= 0, got {self.match_index}"
            )

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
        if self.rank < 0:
            raise FaultPlanError(f"rank must be >= 0, got {self.rank}")
        if self.iteration < 0:
            raise FaultPlanError(
                f"iteration must be >= 0, got {self.iteration}"
            )


@dataclass(frozen=True)
class AllocFault:
    """Fail the Nth device allocation for ``count`` consecutive attempts."""

    index: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.index < 0:
            raise FaultPlanError(f"index must be >= 0, got {self.index}")
        if self.count < 1:
            raise FaultPlanError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class CompileFault:
    """Fail the Nth session compile for ``count`` consecutive attempts."""

    index: int
    count: int = 1

    def __post_init__(self) -> None:
        if self.index < 0:
            raise FaultPlanError(f"index must be >= 0, got {self.index}")
        if self.count < 1:
            raise FaultPlanError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, serializable fault schedule for one run."""

    seed: int = 0
    comm_faults: Tuple[CommFault, ...] = ()
    rank_crashes: Tuple[RankCrash, ...] = ()
    alloc_faults: Tuple[AllocFault, ...] = ()
    compile_faults: Tuple[CompileFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "comm_faults", tuple(self.comm_faults))
        object.__setattr__(self, "rank_crashes", tuple(self.rank_crashes))
        object.__setattr__(self, "alloc_faults", tuple(self.alloc_faults))
        object.__setattr__(self, "compile_faults",
                           tuple(self.compile_faults))

    @property
    def empty(self) -> bool:
        return not (self.comm_faults or self.rank_crashes
                    or self.alloc_faults or self.compile_faults)

    def size(self) -> int:
        return (len(self.comm_faults) + len(self.rank_crashes)
                + len(self.alloc_faults) + len(self.compile_faults))

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "comm_faults": [asdict(f) for f in self.comm_faults],
            "rank_crashes": [asdict(f) for f in self.rank_crashes],
            "alloc_faults": [asdict(f) for f in self.alloc_faults],
            "compile_faults": [asdict(f) for f in self.compile_faults],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            seed=int(data.get("seed", 0)),
            comm_faults=tuple(CommFault(**f)
                              for f in data.get("comm_faults", ())),
            rank_crashes=tuple(RankCrash(**f)
                               for f in data.get("rank_crashes", ())),
            alloc_faults=tuple(AllocFault(**f)
                               for f in data.get("alloc_faults", ())),
            compile_faults=tuple(CompileFault(**f)
                                 for f in data.get("compile_faults", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- seeded generation ---------------------------------------------------

    @classmethod
    def generate(cls, seed: int, *,
                 comm_faults: int = 3,
                 max_message_index: int = 12,
                 ranks: int = 0,
                 crash_iterations: Sequence[int] = (),
                 alloc_faults: int = 0,
                 max_alloc_index: int = 4,
                 compile_faults: int = 0,
                 max_compile_index: int = 2) -> "FaultPlan":
        """A randomized-but-deterministic plan drawn from ``seed``.

        ``ranks`` > 0 with a non-empty ``crash_iterations`` adds one rank
        crash at a drawn (rank, iteration); comm faults draw kind and
        match-index uniformly (any-source/dest/tag filters, so they fire on
        whatever traffic the run produces).  The same seed and keyword
        arguments always produce the same plan.
        """
        rng = random.Random(f"FaultPlan:{seed}")
        comm: List[CommFault] = []
        for _ in range(comm_faults):
            comm.append(CommFault(
                kind=rng.choice(COMM_FAULT_KINDS),
                match_index=rng.randrange(max_message_index),
            ))
        crashes: List[RankCrash] = []
        if ranks > 0 and crash_iterations:
            crashes.append(RankCrash(
                rank=rng.randrange(ranks),
                iteration=rng.choice(list(crash_iterations)),
            ))
        allocs: List[AllocFault] = []
        for _ in range(alloc_faults):
            allocs.append(AllocFault(index=rng.randrange(max_alloc_index),
                                     count=rng.choice((1, 1, 2))))
        compiles: List[CompileFault] = []
        for _ in range(compile_faults):
            compiles.append(CompileFault(
                index=rng.randrange(max_compile_index), count=1))
        return cls(seed=seed, comm_faults=tuple(comm),
                   rank_crashes=tuple(crashes), alloc_faults=tuple(allocs),
                   compile_faults=tuple(compiles))


__all__ = [
    "COMM_FAULT_KINDS",
    "FaultPlanError",
    "CommFault",
    "RankCrash",
    "AllocFault",
    "CompileFault",
    "FaultPlan",
]
