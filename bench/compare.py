#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the parent (or the first A/A run), B the change.  For every workload and
every end-to-end metric it prints both medians, how much worse B is in the
metric's own direction, the run-to-run spread, the bound ``BENCHMARK.json``
fixes, and a verdict:

``ok``          B is no worse than A by more than the bound
``worse``       B is worse than A by more than the bound
``unresolved``  the spread is wider than the bound, so "no worse" cannot be
                told from noise (unless every run of B beats every run of A)

Per-layer metrics counted in whole things (``count``, ``bytes``, ``lines``,
``flop``) must be identical in A and B.  The exit code is non-zero on any
``worse``, any count mismatch, or any failed operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Units of per-layer metrics that must repeat exactly from run to run.
EXACT_UNITS = frozenset({"count", "bytes", "lines", "flop"})

ROOT = Path(__file__).resolve().parent.parent


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict(a: Dict, b: Dict, better: str, bound: float) -> Tuple[str, float, Optional[float]]:
    delta = worse_by(a["median"], b["median"], better)
    spreads = [s for s in (a.get("spread"), b.get("spread")) if s is not None]
    spread = max(spreads) if spreads else None
    if delta > bound:
        return "worse", delta, spread
    if spread is not None and spread > bound:
        a_values, b_values = a.get("values", []), b.get("values", [])
        b_always_better = bool(a_values and b_values) and (
            max(b_values) < min(a_values) if better == "lower"
            else min(b_values) > max(a_values))
        if not b_always_better:
            return "unresolved", delta, spread
    return "ok", delta, spread


def compare(a: Dict, b: Dict, spec: Dict) -> Tuple[List[str], int]:
    """The delta table as lines, and the number of rows that fail."""
    lines = [f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} "
             f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"]
    failures = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        in_a, in_b = a["workloads"].get(name), b["workloads"].get(name)
        if in_a is None or in_b is None:
            lines.append(f"{name:<16} missing from {'A' if in_a is None else 'B'}")
            failures += 1
            continue
        for metric in spec["end_to_end"]:
            row_a = in_a["end_to_end"][metric["name"]]
            row_b = in_b["end_to_end"][metric["name"]]
            word, delta, spread = verdict(row_a, row_b, metric["better"],
                                          metric["bound"])
            failures += word == "worse"
            shown_spread = "-" if spread is None else f"{spread * 100:.1f}%"
            lines.append(
                f"{name:<16} {metric['name']:<16} {row_a['median']:>12.5g} "
                f"{row_b['median']:>12.5g} {delta * 100:>8.1f}% "
                f"{shown_spread:>7} {metric['bound'] * 100:>5.0f}%  {word}")
        for side, result in (("A", in_a), ("B", in_b)):
            if result.get("failed"):
                lines.append(f"{name:<16} {side}: {result['failed']} of "
                             f"{result['attempted']} operations failed")
                failures += 1
        for metric in spec["per_layer"]:
            if metric["unit"] not in EXACT_UNITS:
                continue
            value_a = in_a["per_layer"][metric["name"]]["value"]
            value_b = in_b["per_layer"][metric["name"]]["value"]
            if value_a != value_b:
                lines.append(f"{name:<16} {metric['name']}: count mismatch, "
                             f"A={value_a} B={value_b}")
                failures += 1
    return lines, failures


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    lines, failures = compare(loaded[0], loaded[1], spec)
    print("\n".join(lines))
    print(f"{failures} failing row(s)" if failures else "all rows within bounds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
