"""The differential smoke with the default cache-box plan forced on.

Fuzz and tier-1 domains sit far under ``CACHE_BUDGET_BYTES``, so on their own
they only ever exercise the single whole-domain box.  Shrinking the budget to
a hundred-odd bytes sends every generated kernel's single-thread sweeps
through ``plan_cache_boxes`` — many boxes per sweep, slab assembly for apply
kernels, in-place boxes for nests — against the same scalar oracle.
"""

from repro.fuzz import DifferentialRunner, Farm
from repro.runtime import Interpreter, parallel_executor


def test_differential_fuzz_through_default_boxes(fuzz_seeds, monkeypatch):
    monkeypatch.setattr(parallel_executor, "CACHE_BUDGET_BYTES", 128)
    cache_tiles = []
    plan_sweep = Interpreter._plan_sweep

    def counting_plan(self, *args):
        boxes, plan = plan_sweep(self, *args)
        if plan == "cache":
            cache_tiles.append(len(boxes))
        return boxes, plan

    monkeypatch.setattr(Interpreter, "_plan_sweep", counting_plan)
    report = Farm(DifferentialRunner(), count=fuzz_seeds).run()
    assert report.cases == fuzz_seeds
    details = "\n".join(d.describe() for d in report.divergences)
    assert report.ok, f"divergences under the default box plan:\n{details}"
    for backend, counters in report.per_backend.items():
        assert counters["fallbacks"] == 0, (backend, counters)
    # The plan really engaged, and a "cache" plan always has several boxes.
    assert len(cache_tiles) >= fuzz_seeds and min(cache_tiles) > 1
