"""CLI driver for the fuzz farm and its two scenarios.

Examples::

    # Run 50 fresh seeds through the full backend x mode matrix:
    PYTHONPATH=src python -m repro.fuzz --seeds 50

    # Bounded smoke run (CI): stop after 60 seconds, replay corpus too:
    PYTHONPATH=src python -m repro.fuzz --seeds 200 --time-budget 60

    # Replay one seed (the repro command a Divergence prints):
    PYTHONPATH=src python -m repro.fuzz --replay-seed 17

    # Replay every persisted corpus case through the full matrix:
    PYTHONPATH=src python -m repro.fuzz --replay-corpus

    # Churn the persistent artifact store too (repro.serve): compiles land
    # on disk; a second run with the same DIR reloads instead of lowering:
    PYTHONPATH=src python -m repro.fuzz --seeds 50 --store /tmp/repro-store

    # Chaos mode: every seed fault-free first, then under a seeded
    # FaultPlan, demanding bitwise-identical recovered outputs:
    PYTHONPATH=src python -m repro.fuzz --chaos --seeds 20

Exit status is a contract CI pins: **0** when the run is clean, **1** when
any divergence is found (or a corpus replay regresses, or a chaos fault
goes unrecovered), **2** when the harness itself crashes.  New divergences
are delta-debugged and saved into the corpus automatically unless
``--no-minimize`` is given.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from ..harness import fuzz_summary_table, recovery_report_table
from .chaos import ChaosRunner
from .corpus import DEFAULT_CORPUS_DIR, load_corpus, minimize_and_save, replay_entry
from .generator import DEFAULT_CONFIG, generate_spec
from .runner import DifferentialRunner, Farm


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description=("Differential fuzzing: generated kernels through every "
                     "backend and execution mode, compared bitwise against "
                     "the scalar interpreter oracle."))
    parser.add_argument("--seeds", type=int, default=25, metavar="N",
                        help="number of seeds to fuzz (default: 25)")
    parser.add_argument("--start-seed", type=int, default=0, metavar="S",
                        help="first seed of the range (default: 0)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="SECONDS",
                        help="stop starting new cases after this many seconds")
    parser.add_argument("--backends", nargs="+", default=None,
                        metavar="NAME",
                        help="restrict the matrix to these backends "
                             "(default: all registered)")
    parser.add_argument("--corpus", type=Path, default=DEFAULT_CORPUS_DIR,
                        metavar="DIR",
                        help="corpus directory for minimized failures "
                             f"(default: {DEFAULT_CORPUS_DIR})")
    parser.add_argument("--no-minimize", action="store_true",
                        help="report divergences without delta-debugging "
                             "or saving them")
    parser.add_argument("--store", type=Path, default=None, metavar="DIR",
                        help="back the farm's session with an on-disk "
                             "artifact store at DIR (repro.serve), so the "
                             "fuzz run churns the persistent cache too")
    parser.add_argument("--replay-seed", type=int, default=None, metavar="S",
                        help="replay a single seed through the matrix "
                             "and exit")
    parser.add_argument("--config", default=None, metavar="LABEL",
                        help="with --replay-seed: only check this "
                             "configuration label")
    parser.add_argument("--replay-corpus", action="store_true",
                        help="replay every corpus entry through the full "
                             "matrix and exit")
    parser.add_argument("--chaos", action="store_true",
                        help="chaos mode: re-run each seed under a seeded "
                             "fault plan (message faults, rank crashes, "
                             "device OOM, compile failures) and demand "
                             "bitwise-identical recovered outputs")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress output")
    return parser


def _replay_seed(args) -> int:
    runner = DifferentialRunner(backends=args.backends)
    spec = generate_spec(args.replay_seed, DEFAULT_CONFIG)
    print(spec.render())
    if args.config:
        diverged = runner.reproduces(spec, args.config)
        print(f"[{args.config}] {'DIVERGES' if diverged else 'ok'}")
        return 1 if diverged else 0
    result = runner.run_case(spec)
    for divergence in result.divergences:
        print(divergence.describe())
    print(f"{result.configs_run} configurations, "
          f"{len(result.divergences)} divergences")
    return 0 if result.ok else 1


def _replay_corpus(args) -> int:
    entries = load_corpus(args.corpus)
    if not entries:
        print(f"corpus {args.corpus} is empty")
        return 0
    runner = DifferentialRunner(backends=args.backends)
    regressions = 0
    for entry in entries:
        divergences = replay_entry(entry, runner)
        status = "ok" if not divergences else "REGRESSED"
        print(f"{entry.name} [{entry.config_label}] {status}")
        for divergence in divergences:
            print("  " + divergence.describe().replace("\n", "\n  "))
        regressions += len(divergences)
    print(f"{len(entries)} corpus entries replayed, {regressions} regressions")
    return 0 if regressions == 0 else 1


def _scenario(args, session):
    """The farm scenario the flags select, how one finished case reads in
    the progress output, and the renderer of the final report."""
    if args.chaos:
        return (ChaosRunner(session),
                lambda r: (f"({r.configs_run} scenarios, "
                           f"{r.recovery.faults_injected} faults)"),
                recovery_report_table)
    return (DifferentialRunner(session, args.backends),
            lambda r: f"rank {r.spec.rank} ({r.configs_run} configs)",
            fuzz_summary_table)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.replay_seed is not None:
        return _replay_seed(args)
    if args.replay_corpus:
        return _replay_corpus(args)

    session = None
    if args.store is not None:
        # Churn the on-disk artifact store under the farm: every generated
        # kernel's compile lands on disk and warm reruns reload from it.
        # The exit-code contract is unchanged — store failures are misses.
        from ..api.session import Session
        from ..serve import ArtifactStore

        session = Session(store=ArtifactStore(args.store))
    scenario, progress, render = _scenario(args, session)
    farm = Farm(scenario, count=args.seeds, start=args.start_seed,
                time_budget=args.time_budget)

    def on_case(result):
        if args.quiet:
            return
        marker = "ok " if result.ok else "DIV"
        print(f"  seed {result.spec.seed:>5} [{result.spec.style:>11}] "
              f"{marker} {progress(result)}")

    report = farm.run(on_case=on_case)
    print()
    print(render(report))
    for divergence in report.divergences:
        print()
        print(divergence.describe())
    if (report.divergences and isinstance(scenario, DifferentialRunner)
            and not args.no_minimize):
        print()
        for divergence in report.divergences:
            entry = minimize_and_save(
                divergence, scenario,
                generator_config=farm.generator_config,
                corpus_dir=args.corpus)
            print(f"minimized seed {divergence.seed} "
                  f"[{divergence.config_label}]: size "
                  f"{entry.original_size} -> {entry.spec.size()}, "
                  f"saved {args.corpus / (entry.name + '.json')}")
    return 0 if report.ok else 1


def run(argv=None) -> int:
    """CLI entry with the pinned exit-code contract: 0 clean, 1 divergence
    (or unrecovered chaos fault / corpus regression), 2 harness crash."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse errors keep their own codes
        code = exc.code
        return code if isinstance(code, int) else 2
    except KeyboardInterrupt:
        raise
    except BaseException:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(run())
