"""The differential smoke with the default cache-box plan forced on.

Fuzz and tier-1 domains sit far under ``CACHE_BUDGET_BYTES``, so on their own
they only ever exercise whole slabs.  Shrinking the budget to a hundred-odd
bytes sends every generated kernel's sweeps — single-thread, thread-slabbed
and GPU launches alike — through ``plan_cache_boxes``: many boxes per sweep,
apply results delivered box by box, in-place boxes for nests and launches,
against the same scalar oracle.  A box that small is one unit-stride row, so
whatever kernel has a flat body runs it, box after box.
"""

from collections import defaultdict

from repro.fuzz import DifferentialRunner, Farm
from repro.runtime import Interpreter, parallel_executor


def test_differential_fuzz_through_default_boxes(fuzz_seeds, monkeypatch):
    monkeypatch.setattr(parallel_executor, "CACHE_BUDGET_BYTES", 128)
    #: matrix cell -> the (boxes, slabs, shape) of every sweep it planned
    plans = defaultdict(list)
    interpreters = defaultdict(set)
    cell = [None]
    plan_sweep = Interpreter._plan_sweep

    def recording_plan(self, *args):
        boxes, slabs, shape = plan_sweep(self, *args)
        plans[cell[0]].append((len(boxes), slabs, shape))
        interpreters[cell[0]].add(self)
        return boxes, slabs, shape

    class RecordingRunner(DifferentialRunner):
        def run_config(self, spec, cfg):
            cell[0] = cfg.label
            return super().run_config(spec, cfg)

    monkeypatch.setattr(Interpreter, "_plan_sweep", recording_plan)
    report = Farm(RecordingRunner(), count=fuzz_seeds).run()
    assert report.cases == fuzz_seeds
    details = "\n".join(d.describe() for d in report.divergences)
    assert report.ok, f"divergences under the default box plan:\n{details}"
    for backend, counters in report.per_backend.items():
        assert counters["fallbacks"] == 0, (backend, counters)

    def cache_tiles(label):
        return sum(boxes for boxes, _, shape in plans[label] if shape == "cache")

    def parallel_tiles(label):
        return sum(slabs for _, slabs, _ in plans[label] if slabs > 1)

    # One plan for every cell: cache boxes engage with one thread, inside
    # thread slabs and inside launches, and always cut into several boxes.
    for label in ("cpu/vectorize", "cpu-scf/vectorize", "gpu-scf-s2/vectorize",
                  "openmp-static-t2/vectorize", "openmp-dynamic-t4/crosscheck"):
        assert cache_tiles(label) >= fuzz_seeds, label
        assert (parallel_tiles(label) > 0) == label.startswith("openmp"), label
        flat = sum(interp.kernels.stats["renderings"].get("flat", 0)
                   for interp in interpreters[label])
        assert flat >= cache_tiles(label) // 2, label
    assert all(boxes > slabs for cell_plans in plans.values()
               for boxes, slabs, shape in cell_plans if shape == "cache")
