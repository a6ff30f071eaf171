#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py [--workload W] [--seed S] [--trace 1]``.

One workload per process, so imports, caches and peak RSS are attributable
to it::

    python3 bench/run.py --workload pw96_cpu --seed 7 --seconds 15 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) by name with units, and as its **last line** one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The whole result, with
the reason behind every ``null``, the sample counts and the machine
fingerprint, goes to ``bench/out/e2e-<workload>.json`` or
``bench/out/layers-<workload>.json``; the traced pass also writes the
Chrome trace ``bench/out/trace-<workload>.json``.  Without ``--workload`` it
runs every workload of ``BENCHMARK.json`` in a subprocess each (untraced, then
traced), ``--repeat`` times with consecutive seeds, and writes one result file
that ``bench/compare.py`` reads.

The exit code is non-zero when any operation failed or produced output that is
not bitwise equal to the hand-written NumPy reference.
"""

import time

_PROCESS_START = time.perf_counter()

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

if __name__ == "__main__":
    # Run as a script: build nothing, import the program from this checkout's
    # source tree (never an installed copy), import ``bench`` as a package,
    # and fix the measurement environment before NumPy is imported.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    from bench import environment
    environment.pin()

import argparse
import json
import math
import subprocess
from typing import Dict, List, Optional

from bench import environment, layers, measure, stats
from bench.trace import TARGETS
from bench.workloads import OUT_DIR, WORKLOADS

SMOKE_OPERATIONS = 3
SMOKE_ROUNDS = 2
#: The contract line carries numbers only; a metric that could not be
#: measured (its reason is in the result file) reads as this sentinel.
UNAVAILABLE = -1.0


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, process_start: Optional[float] = None,
                 targets=TARGETS) -> Dict:
    """Set up and measure one workload in this process.  ``targets`` are the
    callables the traced pass wraps (see ``bench/trace.py``)."""
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    w = WORKLOADS[name](seed, smoke=smoke)
    rec = measure.Recorder()
    minimum = SMOKE_OPERATIONS if smoke else measure.MIN_OPERATIONS
    notes: Dict[str, str] = {}
    try:
        first_setup, note = measure.set_up(w, rec, process_start)
        if note:
            notes["setup_s"] = note
        w.want = w.expected()
        if trace:
            measured, layer_notes, samples = layers.traced_pass(
                w, rec, seconds, first_setup, minimum, smoke,
                declared=[entry["name"] for entry in declared],
                targets=targets)
            notes.update(layer_notes)
        else:
            measured, samples = measure.end_to_end(
                w, rec, seconds, first_setup, minimum,
                SMOKE_ROUNDS if smoke else measure.ROUNDS)
    finally:
        w.close()

    metrics: Dict[str, Dict[str, object]] = {}
    for entry in declared:
        value = measured.get(entry["name"])
        if value is not None and not math.isfinite(value):
            notes[entry["name"]] = f"not finite: {value!r}"
            value = None
        if value is None:
            notes.setdefault(entry["name"], "no samples: every attempt failed"
                             if rec.failed else "not measured")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "correct": rec.failed == 0,
        "attempted": rec.attempted, "failed": rec.failed,
        "failed_share": rec.failed_share, "errors": rec.errors[:5],
        "metrics": metrics, "notes": notes, "samples": samples,
    }


def contract_line(result: Dict) -> str:
    """The one JSON object the driver reads (numbers only)."""
    metrics = {
        name: {"value": UNAVAILABLE if m["value"] is None else m["value"],
               "unit": m["unit"]}
        for name, m in result["metrics"].items()
    }
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_table(result: Dict) -> None:
    print(f"# {result['workload']}  seed={result['seed']}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"failed_share={result['failed_share']:.4f}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        reason = result["notes"].get(name)
        print(f"  {name:<44} {shown:>14} {metric['unit']}"
              + (f"   ({reason})" if reason else ""))
    absolute = result["samples"].get("absolute")
    if absolute:
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
        print("  -- absolute, for the reader (per-layer metrics, no bound):")
        for name, value in absolute.items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown:>14} {units.get(name, '')}")
    for error in result["errors"]:
        print(f"  ! {error}")


def run_one(args) -> int:
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), smoke=args.smoke,
                          process_start=_PROCESS_START)
    result["fingerprint"] = environment.fingerprint(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    kind = "layers" if args.trace else "e2e"
    with open(OUT_DIR / f"{kind}-{args.workload}.json", "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print_table(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> Dict:
    """One workload in its own process; its contract line, parsed."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode} "
                           f"without a result:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, ``--repeat`` times untraced and once traced."""
    spec = load_spec()
    report: Dict[str, object] = {
        "fingerprint": environment.fingerprint(ROOT), "seed": args.seed,
        "seconds": args.seconds, "repeat": args.repeat, "smoke": args.smoke,
        "workloads": {},
    }
    failed = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = [_child(name, args.seed + i, args.seconds, 0, args.smoke)
                for i in range(args.repeat)]
        traced = _child(name, args.seed, args.seconds, 1, args.smoke)
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            end_to_end[metric["name"]] = dict(
                stats.summarize(values), unit=metric["unit"], values=values)
        attempted = sum(run["attempted"] for run in runs + [traced])
        failed_here = sum(run["failed"] for run in runs + [traced])
        failed += failed_here
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
            "attempted": attempted, "failed": failed_here,
            "failed_share": failed_here / attempted,
        }
        print(f"# {name}  attempted={attempted}  failed={failed_here}  "
              f"failed_share={failed_here / attempted:.4f}")
        for metric_name, row in end_to_end.items():
            noise = "" if row["spread"] is None \
                else f"   spread {row['spread'] * 100:.1f}%"
            print(f"  {metric_name:<20} {row['median']:>14.6g} "
                  f"{row['unit']}{noise}")
        sys.stdout.flush()
    out = Path(args.out) if args.out else OUT_DIR / "BENCH.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    print(f"wrote {out}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload in this process "
                             "(default: all, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs are generated from the seed")
    parser.add_argument("--seconds", type=float,
                        default=float(load_spec()["run_seconds"]),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n=12, 3 operations): a wiring check")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: untraced runs per workload")
    parser.add_argument("--out", help="all-workloads mode: result file")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
