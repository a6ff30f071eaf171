"""Percentiles, tail selection and run-to-run spread.

Kept dependency-free (no NumPy) so ``bench/compare.py`` can read two result
files without importing the program under test.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Tail percentiles tried from the top; the first with enough samples beyond
#: it is reported (the choosing-metrics rule: at least ten samples beyond).
TAIL_CANDIDATES = (99, 95, 90, 80, 75, 70, 60)
TAIL_SAMPLES_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be within 0..100, got {q!r}")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50)


def tail(samples: Sequence[float]) -> Tuple[int, float, int]:
    """``(percentile, value, sample count)`` of the highest candidate
    percentile that leaves at least ten samples beyond it.

    With too few samples for any candidate the median is returned (percentile
    50), so a short run reports an honest "no tail resolved" instead of a
    maximum that one stall decides.
    """
    n = len(samples)
    for q in TAIL_CANDIDATES:
        if n * (100 - q) / 100.0 >= TAIL_SAMPLES_BEYOND:
            return q, percentile(samples, q), n
    return 50, median(samples), n


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median — the A/A noise
    figure the acceptance rule uses.  ``None`` with fewer than two values or
    a zero median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    if mid == 0:
        return None
    return (q3 - q1) / abs(mid)


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median and spread of one metric's values across repeated runs."""
    return {"median": statistics.median(values), "spread": spread(values),
            "runs": len(values)}
