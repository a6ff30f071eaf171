"""Multi-core tiled execution of compiled kernels.

The kernel compiler turns a lowered ``scf.parallel`` / ``omp.wsloop`` nest, a
``stencil.apply`` body or an outlined ``gpu.func`` into one NumPy whole-array
sweep.  This module splits such a sweep's domain into **boxes** and runs them,
concurrently on a shared :class:`ThreadPoolExecutor` when asked to (NumPy
releases the GIL for large slice operations, so real in-process speedup is
achievable without multiprocessing).

Two pieces, each independently testable:

* the planners — :func:`plan_tiles` turns ``[lower, upper)`` plus an OpenMP
  schedule (kind + chunk size, as carried on ``omp.wsloop`` by
  ``convert-scf-to-openmp``) into contiguous, disjoint ``(lb, ub)`` spans that
  exactly cover the extent; :func:`plan_boxes` partitions a whole box into
  equal-shaped sub-boxes; :func:`plan_cache_boxes` picks their shape —
  cache-sized, unit-stride axis whole; :func:`plan_sweep` composes them into
  the one plan every sweep runs — thread slabs along the outermost
  dimension, each cut into cache boxes;
* :func:`run_boxes` — runs a kernel over a box plan, on no more threads than
  the process has CPUs: store kernels in place, pure kernels delivered box by
  box where their values are stored.

The pools of :func:`get_executor`, shared process-wide, run only boxes:
leaf work that never waits, so no worker blocks on a task queued behind it.

Safety is the caller's job and the caller can afford it: a nest kernel that
passed :meth:`CompiledKernel.guards_pass` has unit steps, in-bounds windows,
no load/store aliasing and only same-array/same-index-map store pairs — so
boxes that partition the domain write provably disjoint regions (exactly the
guarantee ``scf.parallel`` iteration independence gives).  Anything weaker
runs the whole domain as one box; :class:`repro.runtime.Interpreter` counts
a multi-thread sweep that ran as one slab in ``stats["parallel_fallbacks"]``.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: One box of a sweep plan: ``(lowers, uppers)``, half-open per dimension.
Box = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: Working-set budget of one box of a sweep plan, see :func:`plan_cache_boxes`.
#: Measured, not derived: PW advection at n = 64/96/128 runs fastest on a
#: broad plateau of boxes of roughly 15k-60k points (docs/ARCHITECTURE.md
#: "Parallel execution" has the table), and blocking loses below it, so the
#: budget sits where n = 32 still runs whole.
CACHE_BUDGET_BYTES = 2 << 20

#: Schedule kinds understood by :func:`plan_tiles` (OpenMP worksharing-loop
#: schedule clause subset; "auto"/"runtime" map to "static" upstream).
SCHEDULE_KINDS = ("static", "dynamic", "guided")


def plan_tiles(
    lower: int,
    upper: int,
    threads: int,
    schedule: str = "static",
    chunk: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Partition ``[lower, upper)`` into contiguous ``(lb, ub)`` tiles.

    The tiles are returned in domain order, are mutually disjoint, and their
    union is exactly ``[lower, upper)``.  ``schedule`` follows the OpenMP
    clause semantics as far as a shared task queue needs them:

    * ``static`` without a chunk: one near-equal contiguous block per
      thread (OpenMP's default static partition);
    * ``static`` with a chunk / ``dynamic``: fixed ``chunk``-sized tiles —
      on a work-queue pool the static round-robin assignment and the
      dynamic first-come assignment execute the same tile set, the pool
      supplying the load balancing;
    * ``guided``: exponentially decreasing tile sizes
      ``max(chunk, remaining / threads)``, front-loading large tiles.

    ``dynamic`` without an explicit chunk uses ``extent // (8 * threads)``
    (clamped to 1) rather than OpenMP's default of 1, which on a NumPy
    backend would shred the sweep into per-row tasks whose dispatch overhead
    swamps the kernel.
    """
    extent = upper - lower
    if extent <= 0:
        return []
    threads = max(1, threads)
    if schedule not in SCHEDULE_KINDS:
        raise ValueError(
            f"unknown schedule kind '{schedule}'; expected one of {SCHEDULE_KINDS}"
        )
    if chunk is not None and chunk <= 0:
        raise ValueError(f"chunk size must be positive, got {chunk}")

    if schedule == "static" and chunk is None:
        tiles_wanted = min(threads, extent)
        base, remainder = divmod(extent, tiles_wanted)
        tiles: List[Tuple[int, int]] = []
        position = lower
        for i in range(tiles_wanted):
            size = base + (1 if i < remainder else 0)
            tiles.append((position, position + size))
            position += size
        return tiles

    if schedule == "guided":
        minimum = chunk if chunk is not None else 1
        tiles = []
        position = lower
        while position < upper:
            remaining = upper - position
            size = max(minimum, -(-remaining // threads))
            size = min(size, remaining)
            tiles.append((position, position + size))
            position += size
        return tiles

    # static-with-chunk and dynamic: fixed-size chunks.
    if chunk is None:
        chunk = max(1, extent // (8 * threads))
    return [(p, min(p + chunk, upper)) for p in range(lower, upper, chunk)]


def plan_boxes(
    lowers: Sequence[int],
    uppers: Sequence[int],
    sizes: Sequence[int],
) -> List[Box]:
    """Partition the box ``[lowers, uppers)`` into ``sizes``-shaped sub-boxes.

    The multi-dimensional counterpart of :func:`plan_tiles`, backing
    :func:`plan_cache_boxes`: boxes are returned in lexicographic domain
    order, are mutually disjoint, and their union is exactly the input box
    (edge boxes are clipped).  Returns an empty list for an empty domain.
    """
    if len(lowers) != len(uppers) or len(lowers) != len(sizes):
        raise ValueError("plan_boxes: lowers/uppers/sizes rank mismatch")
    if any(s < 1 for s in sizes):
        raise ValueError(f"plan_boxes: tile sizes must be positive, got {sizes}")
    if any(u <= l for l, u in zip(lowers, uppers)):
        return []
    per_dim = [
        [(p, min(p + size, upper)) for p in range(lower, upper, size)]
        for lower, upper, size in zip(lowers, uppers, sizes)
    ]
    boxes: List[Box] = [((), ())]
    for spans in per_dim:
        boxes = [
            (lb + (span_lb,), ub + (span_ub,))
            for lb, ub in boxes
            for span_lb, span_ub in spans
        ]
    return boxes


def plan_cache_boxes(
    lowers: Sequence[int],
    uppers: Sequence[int],
    strides: Sequence[int],
    arrays: int,
) -> List[Box]:
    """Partition ``[lowers, uppers)`` into boxes whose working set — box
    points × 8 B × ``arrays``, the arrays a kernel touches per point — fits
    :data:`CACHE_BUDGET_BYTES`; a domain already under it stays one box.

    ``strides[d]`` is the byte stride of iteration dimension ``d`` in the
    swept data.  The smallest-stride dimension is never cut (short rows
    would waste every cache line and prefetch stream); the others are cut
    largest stride first, each into near-equal pieces.
    """
    sizes = [max(1, upper - lower) for lower, upper in zip(lowers, uppers)]
    points = CACHE_BUDGET_BYTES // (8 * max(1, arrays))
    by_stride = sorted(range(len(sizes)), key=lambda dim: -abs(strides[dim]))
    for dim in by_stride[:-1]:
        total = math.prod(sizes)
        if total <= points:
            break
        size = max(1, points // (total // sizes[dim]))
        pieces = -(-sizes[dim] // size)
        sizes[dim] = -(-sizes[dim] // pieces)
    return plan_boxes(lowers, uppers, sizes)


def plan_sweep(
    lowers: Sequence[int],
    uppers: Sequence[int],
    threads: int = 1,
    schedule: str = "static",
    chunk: Optional[int] = None,
    strides: Optional[Sequence[int]] = None,
    arrays: int = 1,
) -> Tuple[List[Box], int, Optional[str]]:
    """The box plan of one sweep over ``[lowers, uppers)``: *who* × *how big*,
    as ``(boxes, slabs, shape)``.

    *Who*: with ``threads > 1``, :func:`plan_tiles` cuts the outermost swept
    dimension — the largest ``|strides[d]|``, the loop a real ``omp parallel
    do`` workshares; dimension 0 when no stride is known — into ``slabs``
    slabs under the OpenMP ``schedule`` / ``chunk``; otherwise there is one
    slab.  *How big*: every slab is cut by :func:`plan_cache_boxes` when the
    strides are known, else stays whole.  ``shape`` is "cache" when that cut
    produced more boxes than slabs, else None.  The boxes partition the
    domain, slab after slab; an empty domain has none.
    """
    lowers, uppers = tuple(lowers), tuple(uppers)
    if any(upper <= lower for lower, upper in zip(lowers, uppers)):
        return [], 0, None
    slabs: List[Box] = [(lowers, uppers)]
    if threads > 1:
        dim = 0 if strides is None else \
            max(range(len(lowers)), key=lambda d: abs(strides[d]))
        slabs = [(lowers[:dim] + (lo,) + lowers[dim + 1:],
                  uppers[:dim] + (up,) + uppers[dim + 1:])
                 for lo, up in plan_tiles(lowers[dim], uppers[dim], threads,
                                          schedule, chunk)]
    boxes = slabs if strides is None else \
        [box for slab in slabs for box in plan_cache_boxes(*slab, strides, arrays)]
    return boxes, len(slabs), "cache" if len(boxes) > len(slabs) else None


def _layout(value) -> str:
    """"F" when the fastest-varying axis of ``value`` that is longer than one
    is its first, else "C".  Boxes never cut the unit-stride axis, so a box
    one row thick still tells a Fortran-ordered sweep from a C-ordered one
    (its flags say both)."""
    value = np.asarray(value)
    axes = [d for d, extent in enumerate(value.shape) if extent > 1]
    return "F" if axes and min(axes, key=lambda d: abs(value.strides[d])) == 0 \
        else "C"


def usable_cpus() -> int:
    """The CPUs this process may run on now: its affinity mask where the
    platform has one (a pinned process has fewer than ``os.cpu_count()``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_boxes(kernel, externals: Sequence[object], lowers: Sequence[int],
              uppers: Sequence[int], boxes: Sequence[Box], threads: int = 1,
              chosen: Optional[List[str]] = None,
              destinations: Optional[List[np.ndarray]] = None,
              deferred: bool = False) -> Optional[List[object]]:
    """Run ``kernel`` over ``boxes`` — a partition of ``[lowers, uppers)`` —
    on the shared pool of ``min(threads, usable_cpus())`` workers, read at
    every call; with one worker or one box, in box order on the calling
    thread (threads that time-slice one CPU only add switches).  The first
    box, in box order, that raises propagates its exception.  The body each
    box ran ("flat", or why windowed) is appended to ``chosen``.

    Store kernels write each box's region in place; the result is ``[]``.
    Pure (``stencil.apply``) kernels return their values, and each box's are
    written into its window of ``destinations`` — where the results are
    stored: one domain-shaped array each, pairwise disjoint — which is then
    the result: the moment the box finishes, its values dropped, or, when
    ``deferred`` (a destination shares memory with an input), once every box
    has read.  Without destinations one box's values are passed through and
    several boxes' delivered into fresh whole-domain arrays (exact — a pure
    elementwise kernel computes bit-identical values on any sub-box).  A
    value must have its box's shape: one that broadcasts along a cut dimension
    (e.g. built purely from ``stencil.index`` of another) makes the call
    return ``None`` and the caller recompute whole-domain, passed through.
    """
    def fits(box: Box, values) -> bool:
        shape = tuple(u - l for l, u in zip(*box))
        return all(np.shape(value) == shape for value in values)

    def deliver(outs, box: Box, values) -> None:
        window = tuple(slice(bl - l, bu - l) for l, bl, bu in zip(lowers, *box))
        for out, value in zip(outs, values):
            out[window] = value

    def run(box: Box):
        values = kernel.fn(externals, box[0], box[1], chosen)
        if kernel.stores or destinations is None or not fits(box, values):
            return values
        if deferred:  # keep no view of memory that a delivery overwrites
            return [np.copy(value) if any(np.may_share_memory(value, out)
                                          for out in destinations) else value
                    for value in values]
        return deliver(destinations, box, values)

    workers = min(threads, usable_cpus()) if threads > 1 else 1
    partials = list(get_executor(workers).map(run, boxes)) \
        if workers > 1 and len(boxes) > 1 else [run(box) for box in boxes]
    if kernel.stores:
        return []
    pending = [pair for pair in zip(boxes, partials) if pair[1] is not None]
    if not all(fits(*pair) for pair in pending):
        return partials[0] if len(boxes) == 1 else None
    if destinations is None:
        if len(boxes) == 1:
            return partials[0]
        # In the partials' memory layout (Fortran order for Fortran-ordered
        # inputs), so a tiled result is laid out exactly as an untiled one.
        shape = tuple(u - l for l, u in zip(lowers, uppers))
        destinations = [np.empty(shape, np.result_type(first), _layout(first))
                        for first in partials[0]]
    for box, values in pending:
        deliver(destinations, box, values)
    return destinations


#: Process-wide box pools: interpreters asking for the same thread count
#: share one pool, keeping the total thread population bounded.
_EXECUTORS: Dict[int, ThreadPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def get_executor(threads: int) -> ThreadPoolExecutor:
    """The shared box pool of ``threads`` workers (for boxes only)."""
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(threads)
        if executor is None:
            executor = ThreadPoolExecutor(max_workers=threads,
                                          thread_name_prefix="repro-tile")
            _EXECUTORS[threads] = executor
        return executor


__all__ = [
    "SCHEDULE_KINDS",
    "plan_tiles",
    "plan_boxes",
    "plan_cache_boxes",
    "plan_sweep",
    "usable_cpus",
    "run_boxes",
    "get_executor",
]
