"""Random-schedule differential fuzzing: ``python -m repro.fuzz --schedules``.

For each generated :class:`KernelSpec` the :class:`ScheduleRunner` (a
scenario of :class:`repro.fuzz.Farm`) draws a random schedule chain per
backend configuration — directives in canonical order
(``tile`` → ``reorder`` → ``unroll``), each kept only if the
kernel structurally admits it — and asks :meth:`repro.schedule.Schedule.verify`
to prove the scheduled artifact **bitwise identical** to its unscheduled
parent.  Three ways a case can fall out:

* the directive is structurally infeasible for this kernel (wrong depth,
  non-dividing unroll factor): :class:`ScheduleError` at derivation time —
  the directive is dropped, which is itself coverage of the loud-error path;
* the scheduled program diverges from the oracle:
  :class:`ScheduleVerificationError` — a real miscompile, recorded as a
  divergence with a replay command;
* anything else raised while compiling or running a structurally accepted
  chain is a crash, also recorded as a divergence.

The chain drawn for a given ``(seed, config)`` pair is a pure function of
those two values, so every finding replays from the seed alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from ..api.session import Session
from ..schedule.directives import ScheduleError, describe_chain
from ..schedule.schedule import Schedule, ScheduleVerificationError
from .generator import KernelSpec
from .runner import CaseResult, Divergence, Report

#: Tile sizes the chain generator draws from (mixing degenerate, small and
#: extent-crossing sizes so clipped edge boxes are exercised).
_TILE_SIZES = (1, 2, 3, 4, 8)
_UNROLL_FACTORS = (2, 3, 4)


@dataclass(frozen=True)
class ScheduleConfig:
    """One backend configuration random chains are drawn for."""

    label: str
    backend: str
    options: Tuple[Tuple[str, object], ...] = ()
    #: Directives this configuration may draw (canonical order).
    directives: Tuple[str, ...] = ("tile", "reorder", "unroll")


def default_schedule_matrix(spec: KernelSpec) -> List[ScheduleConfig]:
    configs = [
        ScheduleConfig("cpu-stencil", "cpu", directives=("tile",)),
        ScheduleConfig("cpu-scf", "cpu", (("lower_to_scf", True),)),
        ScheduleConfig("openmp-scf", "openmp",
                       (("lower_to_scf", True), ("threads", 2))),
    ]
    if spec.flang_comparable and spec.rank >= 2:
        configs.append(
            ScheduleConfig("flang-reorder", "flang-only",
                           directives=("reorder",)))
    return configs


def draw_chain(rng: random.Random, spec: KernelSpec,
               schedule: Schedule, directives: Tuple[str, ...]) -> Schedule:
    """Grow a random legal chain on ``schedule``, one directive at a time.

    Each candidate is applied through the real lowering; a
    :class:`ScheduleError` means the kernel does not admit it (too shallow a
    nest, non-dividing factor, ...) and the candidate is dropped.  Anything
    that survives derivation is structurally legal by construction.
    """
    serial_depth = max(0, spec.rank - 1)

    def attempt(fn: Callable[[Schedule], Schedule]) -> Schedule:
        try:
            return fn(schedule)
        except ScheduleError:
            return schedule

    if "tile" in directives and rng.random() < 0.8:
        sizes = tuple(rng.choice(_TILE_SIZES) for _ in range(spec.rank))
        schedule = attempt(lambda s: s.tile(*sizes))
    if "reorder" in directives:
        # flang bands include every do-loop level; scf nests only the serial
        # tail — draw over the deepest plausible band and let derivation
        # reject what the kernel cannot carry.
        depth = spec.rank if schedule.compiled.backend_name == "flang-only" \
            else serial_depth
        if depth >= 2 and rng.random() < 0.7:
            m = rng.randrange(2, depth + 1)
            perm = list(range(m))
            while perm == list(range(m)):  # force a real permutation
                rng.shuffle(perm)
            schedule = attempt(lambda s: s.reorder(*perm))
    if "unroll" in directives and serial_depth >= 1 and rng.random() < 0.5:
        loop = rng.randrange(serial_depth)
        factor = rng.choice(_UNROLL_FACTORS)
        schedule = attempt(lambda s: s.unroll(loop, factor))
    return schedule


def summary_line(report: Report) -> str:
    """The one-line verdict ``--schedules`` prints for a farm report."""
    status = "OK" if report.ok else "DIVERGED"
    return (f"schedule fuzz: {report.cases} cases, {report.chains_run} "
            f"chains ({report.directives_applied} directives applied), "
            f"{len(report.divergences)} divergences, "
            f"{report.seconds:.1f}s [{status}]")


class ScheduleRunner:
    """Draws one random legal chain per configuration and verify()s it."""

    def __init__(self, session: Optional[Session] = None):
        self.session = session if session is not None else Session()

    def run_case(self, spec: KernelSpec) -> CaseResult:
        result = CaseResult(spec=spec)
        program = self.session.compile(spec.render())
        for config in default_schedule_matrix(spec):
            rng = random.Random(f"{spec.seed}/{config.label}")
            chain_text = "<underived>"
            result.configs_run += 1

            def diverged(kind: str, detail: str) -> None:
                result.divergences.append(Divergence(
                    seed=spec.seed, config_label=config.label,
                    backend=config.backend, kind=kind, detail=detail,
                    spec=spec, chain=chain_text,
                    replay_flags=(f"--schedules --seeds 1 "
                                  f"--start-seed {spec.seed}")))

            try:
                base = program.lower(config.backend, **dict(config.options))
                schedule = draw_chain(rng, spec, base.schedule(),
                                      config.directives)
                chain_text = describe_chain(schedule.chain)
                result.chains.append((config.label, chain_text))
                if not schedule.chain:
                    continue
                schedule.verify(entry=spec.entry)
            except ScheduleVerificationError as err:
                diverged("verify", str(err).splitlines()[0])
            except Exception as err:  # noqa: BLE001 — a crash IS a finding
                diverged("error", f"{type(err).__name__}: {err}")
        return result


__all__ = [
    "ScheduleConfig",
    "ScheduleRunner",
    "default_schedule_matrix",
    "draw_chain",
    "summary_line",
]
