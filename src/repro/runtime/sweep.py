"""How a sweep runs fast: compiled kernels over a box plan.

The interpreter is the scalar reference.  Outside "interpret" mode it builds
one :class:`Sweep`, and the handlers of the ops that can vectorize — loop
nests, ``gpu.launch_func`` and ``memref.snapshot`` — hand it the op, the
frame and their scalar runner, which is both the fallback and
the crosscheck oracle, so the two cannot diverge.  Every sweep takes one
path, :meth:`Sweep.run`; beside it:

* the planners — :func:`plan_boxes` partitions a whole box into
  equal-shaped sub-boxes; :func:`plan_cache_boxes` picks their shape —
  cache-sized, unit-stride axis whole; :func:`plan_sweep` composes the one
  plan every sweep runs — near-equal thread slabs along the outermost
  dimension (OpenMP's default static partition), each cut into cache boxes;
* :func:`run_boxes` — runs a kernel over a box plan on no more threads than
  the process has CPUs (NumPy releases the GIL for large slice operations),
  each box storing its region in place;
* the buffer swap — a ``memref.snapshot`` whose nest overwrites its source
  in place swaps storage instead of copying (:class:`SwapPlan`); when ops
  before the snapshot use the source too (a dmp rank's halo exchange), it
  names the source and the nest defers its stores (:func:`deferring`).

The pools of :func:`get_executor`, shared process-wide, run only boxes:
leaf work that never waits, so no worker blocks on a task queued behind it.

Boxes are safe because the guards are: a nest kernel that passed
:meth:`CompiledKernel.guards_pass` has unit steps, in-bounds windows, no
load/store aliasing and only same-array/same-index-map store pairs — so
boxes that partition the domain write provably disjoint regions (exactly the
guarantee ``scf.parallel`` iteration independence gives).  Anything weaker
runs the whole domain as one box.  This module never imports the
interpreter: the values both use live in :mod:`repro.runtime.memory`.
"""

from __future__ import annotations

import math
import os
import threading
import time as _time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dialects.func import enclosing_func
from ..ir.attributes import IntegerAttr
from ..ir.operation import Operation
from ..ir.ssa import OpResult, SSAValue, Use
from .gpu_kernel_engine import GpuKernelEngine
from .kernel_compiler import KernelUnsupported, _nest_structure
from .memory import InterpreterError, MemoryBuffer

#: One box of a sweep plan: ``(lowers, uppers)``, half-open per dimension.
Box = Tuple[Tuple[int, ...], Tuple[int, ...]]

#: Working-set budget of one box of a sweep plan, see :func:`plan_cache_boxes`.
#: Measured, not derived: PW advection at n = 64/96/128 runs fastest on a
#: broad plateau of boxes of roughly 15k-60k points (docs/ARCHITECTURE.md
#: "Parallel execution" has the table), and blocking loses below it, so the
#: budget sits where n = 32 still runs whole.
CACHE_BUDGET_BYTES = 2 << 20

def plan_boxes(
    lowers: Sequence[int],
    uppers: Sequence[int],
    sizes: Sequence[int],
) -> List[Box]:
    """Partition the box ``[lowers, uppers)`` into ``sizes``-shaped sub-boxes.

    Backs :func:`plan_cache_boxes`: boxes are returned in lexicographic domain
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
    strides: Optional[Sequence[int]] = None,
    arrays: int = 1,
) -> Tuple[List[Box], int, Optional[str]]:
    """The box plan of one sweep over ``[lowers, uppers)``: *who* × *how big*,
    as ``(boxes, slabs, shape)``.

    *Who*: with ``threads > 1``, the outermost swept dimension — the largest
    ``|strides[d]|``, the loop a real ``omp parallel do`` workshares;
    dimension 0 when no stride is known — is cut into ``min(threads,
    extent)`` contiguous near-equal slabs, the first ones a point longer
    (OpenMP's default static partition); otherwise there is one slab.  *How
    big*: every slab is cut by :func:`plan_cache_boxes` when the strides are
    known, else stays whole.  ``shape`` is "cache" when that cut produced
    more boxes than slabs, else None.  The boxes partition the domain, slab
    after slab; an empty domain has none.
    """
    lowers, uppers = tuple(lowers), tuple(uppers)
    if any(upper <= lower for lower, upper in zip(lowers, uppers)):
        return [], 0, None
    slabs: List[Box] = [(lowers, uppers)]
    if threads > 1:
        dim = 0 if strides is None else \
            max(range(len(lowers)), key=lambda d: abs(strides[d]))
        extent = uppers[dim] - lowers[dim]
        pieces = min(threads, extent)
        base, longer = divmod(extent, pieces)
        cuts = [lowers[dim] + i * base + min(i, longer) for i in range(pieces + 1)]
        slabs = [(lowers[:dim] + (lo,) + lowers[dim + 1:],
                  uppers[:dim] + (up,) + uppers[dim + 1:])
                 for lo, up in zip(cuts, cuts[1:])]
    boxes = slabs if strides is None else \
        [box for slab in slabs for box in plan_cache_boxes(*slab, strides, arrays)]
    return boxes, len(slabs), "cache" if len(boxes) > len(slabs) else None


def usable_cpus() -> int:
    """The CPUs this process may run on now: its affinity mask where the
    platform has one (a pinned process has fewer than ``os.cpu_count()``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _DeferredStores:
    """A stored array whose assignments are kept in ``writes`` — with a copy
    of a value that shares memory with a stored array or that the kernel
    writes again; every other attribute is the array's."""

    __slots__ = ("array", "targets", "writes", "copy")

    def __init__(self, array, targets, writes, copy):
        self.array, self.targets, self.writes, self.copy = \
            array, targets, writes, copy

    def __getattr__(self, name: str):
        return getattr(self.array, name)

    def __setitem__(self, key, value) -> None:
        if isinstance(value, np.ndarray) and (self.copy or any(
                np.may_share_memory(value, target) for target in self.targets)):
            value = value.copy()
        self.writes.append((self.array, key, value))


def deferring(kernel, externals: Sequence[object]
              ) -> Tuple[List[object], Callable[[], None]]:
    """``externals`` with each array ``kernel`` stores into recording the
    assignments, and the function that then makes them in that order: over
    boxes that partition the domain, a box may load what another stores."""
    writes: List = []
    targets = kernel.store_targets(externals)
    deferred = list(externals)
    for slot in {slot for slot, _ in kernel.stores}:
        deferred[slot] = MemoryBuffer(_DeferredStores(
            externals[slot].data, targets, writes, kernel.reuses_stored))

    def store() -> None:
        for array, key, value in writes:
            array[key] = value
    return deferred, store


def run_boxes(kernel, externals: Sequence[object], boxes: Sequence[Box],
              threads: int = 1, chosen: Optional[List[str]] = None) -> None:
    """Run ``kernel`` over ``boxes`` — a partition of its domain — on the
    shared pool of ``min(threads, usable_cpus())`` workers, read at every
    call; with one worker or one box, in box order on the calling thread
    (threads that time-slice one CPU only add switches).  Each box stores its
    region in place.  The first box, in box order, that raises propagates its
    exception.  The body each box ran ("flat", or why windowed) is appended
    to ``chosen``.
    """
    def run(box: Box) -> None:
        kernel.fn(externals, box[0], box[1], chosen)

    workers = min(threads, usable_cpus()) if threads > 1 else 1
    if workers > 1 and len(boxes) > 1:
        list(get_executor(workers).map(run, boxes))
    else:
        for box in boxes:
            run(box)


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




#: The loop nests a ``memref.snapshot`` may be read by and swapped for.
_NESTS = frozenset({"scf.parallel", "omp.wsloop"})

#: A shell that is the whole array: the window is empty or leaves it.
_WHOLE = ((Ellipsis,),)


def spare_like(array: np.ndarray) -> np.ndarray:
    """The storage an in-place sweep writes while its snapshot keeps the
    array it displaced: same shape, dtype and memory order.  Its contents are
    undefined until the sweep writes its store window and the shell around
    the window is copied in."""
    return np.empty_like(array)


def _constant(value: SSAValue) -> Optional[int]:
    """The value of an integer ``arith.constant``, else None."""
    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        attr = value.op.get_attr("value")
        if isinstance(attr, IntegerAttr):
            return int(attr.value)
    return None


def _compares(use: Use) -> bool:
    """Whether ``use`` names a buffer a ``memref.snapshot`` guards against:
    its memory is compared, its contents are not read."""
    return use.operation.name == "memref.snapshot" and use.index > 0


def _iv_offset(value: SSAValue, ivs: Sequence[SSAValue]) -> Optional[Tuple[int, int]]:
    """``(dim, offset)`` when ``value`` is ``ivs[dim] + offset``, else None."""
    offset = 0
    if isinstance(value, OpResult) and value.op.name in ("arith.addi", "arith.subi"):
        add = value.op.name == "arith.addi"
        base, shift = value.op.operands
        if add and _constant(base) is not None:
            base, shift = shift, base
        if _constant(shift) is not None:
            value, offset = base, _constant(shift) if add else -_constant(shift)
    for dim, iv in enumerate(ivs):
        if value is iv:
            return dim, offset
    return None


class SwapPlan:
    """How a ``memref.snapshot`` whose nest overwrites its source in place
    swaps storage instead of copying (see :meth:`of`): ``nest`` is that
    nest, ``others`` the enclosing function's other arguments (none may name
    the source's memory at run time), ``inner`` the (lower, upper) values of
    the nest's inner ``scf.for`` loops, ``axes`` the stores' ``(iteration
    dim, offset)`` per memref axis, and ``shells`` the slices the stores do
    not write, per (domain, shape), built at first use.  ``defers``: the
    snapshot names the source and the nest defers its stores instead.
    """

    __slots__ = ("nest", "others", "inner", "axes", "shells", "defers")

    def __init__(self, nest: Operation, others: Tuple[SSAValue, ...],
                 inner: Tuple[SSAValue, ...], axes: Tuple[Tuple[int, int], ...],
                 defers: bool = False):
        self.nest = nest
        self.others = others
        self.inner = inner
        self.axes = axes
        self.shells: Dict[Tuple[int, ...], Tuple[Tuple[slice, ...], ...]] = {}
        self.defers = defers

    @classmethod
    def of(cls, op: Operation) -> Optional["SwapPlan"]:
        """The plan of a ``memref.snapshot``, or None when it must copy.  It
        swaps when every use of the snapshot is a ``memref.load`` in one
        ``scf.parallel``/``omp.wsloop`` that follows it in its block and runs
        exactly once (at most under ``omp.parallel``); when besides the
        snapshot the source (and every cast it was reached through) is used
        only by that nest's stores — affine, unit-step, each indexing every
        iteration dimension through one map — by snapshots that name it as
        written, which only compare memory; and when the function launches
        no GPU kernel (its snapshots are device scratch).  A source also
        used by ops before the snapshot in its block (a dmp rank's halo
        exchange, whose swap would cost a copy back) ``defers`` if only
        snapshots come between it and the nest, which nothing encloses."""
        block, func = op.parent_block(), enclosing_func(op)
        if block is None or func is None or any(
                inner.name == "gpu.launch_func" for inner in func.walk()):
            return None
        source = root = op.operands[0]
        while isinstance(root, OpResult) and len(root.op.operands) == 1 \
                and root.op.name == "builtin.unrealized_conversion_cast":
            cast, root = root.op, root.op.operands[0]
            if any(use.operation is not cast and not _compares(use)
                   for use in root.uses):
                return None
        nest = None
        for use in op.results[0].uses:
            reader = use.operation
            enclosing = reader.parent_op()
            while enclosing is not None and enclosing.name not in _NESTS:
                enclosing = enclosing.parent_op()
            if reader.name != "memref.load" or use.index != 0 \
                    or enclosing is None or nest not in (None, enclosing):
                return None
            nest = enclosing
        if nest is None:
            return None
        outer = nest
        while outer.parent_block() is not block:
            outer = outer.parent_op()
            if outer is None or outer.name != "omp.parallel":
                return None
        if block.index_of(outer) < block.index_of(op):
            return None
        try:
            bounds, ivs, body = _nest_structure(nest)
        except KernelUnsupported:
            return None
        rank = int(nest.get_attr("rank").value)  # type: ignore[union-attr]
        inner: List[SSAValue] = []
        for dim, (lower, upper, step) in enumerate(bounds):
            if _constant(step) != 1:
                return None
            if dim >= rank:
                for value in (lower, upper):
                    owner = value.op if isinstance(value, OpResult) \
                        else value.block.parent_op()
                    if owner is not None and nest.is_ancestor_of(owner):
                        return None
                    inner.append(value)
        axes, defers = None, False
        position = block.index_of(op)
        for use in source.uses:
            user = use.operation
            if user is op or _compares(use):
                continue
            if user.parent_block() is block and block.index_of(user) < position:
                defers = True
                continue
            if user.name != "memref.store" or use.index != 1 \
                    or user.parent_block() is not body:
                return None
            mapped = tuple(_iv_offset(index, ivs) for index in user.operands[2:])
            if None in mapped or axes not in (None, mapped) or \
                    sorted(dim for dim, _ in mapped) != list(range(len(ivs))):
                return None
            axes = mapped
        if axes is None or defers and (outer is not nest or any(
                between.name != "memref.snapshot"
                for between in block.ops[position + 1:block.index_of(nest)])):
            return None
        others = tuple(arg for arg in func.entry_block.args if arg is not root)
        return cls(nest, others, tuple(inner), axes, defers)

    def shell(self, lowers: Sequence[int], uppers: Sequence[int],
              shape: Tuple[int, ...]) -> Tuple[Tuple[slice, ...], ...]:
        """Disjoint slabs covering the array outside the stores' window over
        the iteration domain ``[lowers, uppers)``: all of it when the window
        is empty or leaves the array (the nest then writes nothing, or what
        a full copy would)."""
        window = []
        for (dim, offset), extent in zip(self.axes, shape):
            low, high = lowers[dim] + offset, uppers[dim] + offset
            if low < 0 or high > extent or low >= high:
                return _WHOLE
            window.append(slice(low, high))
        slabs = []
        for axis, (cut, extent) in enumerate(zip(window, shape)):
            head = tuple(window[:axis])
            if cut.start > 0:
                slabs.append(head + (slice(0, cut.start),))
            if cut.stop < extent:
                slabs.append(head + (slice(cut.stop, extent),))
        return tuple(slabs)


class _SwapRecord:
    """One buffer's swaps during one top-level call: its own array, the spare
    its next swap writes (the array the last one displaced), and the write
    count and (plan, domain) of the last shell fill."""

    __slots__ = ("own", "spare", "stamp", "key")

    def __init__(self, own: np.ndarray):
        self.own = own
        self.spare: Optional[np.ndarray] = None
        self.stamp: Optional[int] = None
        self.key: Optional[Tuple[SwapPlan, Tuple[int, ...]]] = None


def _nest_domain(kernel, externals):
    """A nest kernel's own (lowers, uppers, steps): its rank counts collapsed
    inner loops, read back through its bound slots."""
    return tuple(zip(*([int(externals[slot]) for slot in dim]
                       for dim in kernel.bound_slots)))


class Sweep:
    """One interpreter's sweeps outside "interpret" mode.  The handlers of
    the ops that can vectorize call :meth:`nest`, :meth:`launch` and
    :meth:`snapshot`; each top-level call goes through
    :meth:`call`.  The mode, kernel compiler, thread count and array-write
    count are read off ``interp`` when used; ``verdicts`` is its link
    table's memo."""

    def __init__(self, interp, verdicts: Dict):
        self.interp = interp
        self.stats = interp.stats
        self._verdicts = verdicts
        #: Built at the first gpu.launch_func.
        self._gpu_engine: Optional[GpuKernelEngine] = None
        #: While a top-level call runs: each swapped buffer's record, and the
        #: call's arguments (a second name of a swapped array among them
        #: keeps the copy).
        self._swaps: Optional[Dict[MemoryBuffer, _SwapRecord]] = None
        self._arguments: Sequence[object] = ()
        #: nest op -> (buffer, displaced array, plan, record, shell key the
        #: spare already holds) of each swap whose nest has not run.
        self._unfilled: Dict[Operation, List[Tuple]] = {}
        #: nest op -> the snapshots that name their source until it runs.
        self._deferred: Dict[Operation, List[MemoryBuffer]] = {}

    def call(self, arguments: Sequence[object], body: Callable):
        """``body()``, a top-level call of ``arguments`` whose snapshots may
        swap.  It leaves every swapped buffer on its own array, holding the
        result: a swap whose nest never ran (the call raised) is undone, and
        a buffer left on a spare (an odd number of swaps) is copied back.
        The spares go with the table."""
        self._swaps, self._arguments = {}, arguments
        try:
            return body()
        finally:
            swaps, self._swaps, self._arguments = self._swaps, None, ()
            for pending in self._unfilled.values():
                for buffer, displaced, *_ in pending:
                    buffer.data = displaced
            self._unfilled.clear()
            self._deferred.clear()
            for buffer, record in swaps.items():
                if buffer.data is not record.own:
                    np.copyto(record.own, buffer.data)
                    buffer.data = record.own

    def nest(self, op: Operation, frame, scalar_runner: Callable,
             lowers: Sequence[int], uppers: Sequence[int]) -> None:
        """Run a loop nest.  A swapped field's spare gets its shell after the
        sweep, however the sweep ends: the displaced array it copies from is
        only read."""
        swapped = self._unfilled.pop(op, None)
        frozen = self._deferred.pop(op, ())
        try:
            self.run(frame, self.interp.kernels.kernel_for(op), _nest_domain,
                     scalar_runner, frozen=frozen)
        finally:
            if swapped is not None:
                self._fill_shells(swapped, frame, lowers, uppers)

    def launch(self, op: Operation, kernel_op: Operation, frame,
               scalar_runner: Callable, grid: Sequence[int],
               block: Sequence[int]) -> None:
        """The thread lattice, clipped by the compiled guards."""
        if self._gpu_engine is None:
            self._gpu_engine = GpuKernelEngine(self.interp.kernels)
        self.run(frame, self._gpu_engine.kernel_for(op, kernel_op),
                 lambda kernel, externals: kernel.launch_domain(grid, block),
                 scalar_runner, ("gpu_launches_vectorized", "gpu_launch_fallbacks"))

    def snapshot(self, op: Operation, frame) -> Optional[MemoryBuffer]:
        """The swapped-out array a ``memref.snapshot`` keeps
        (:class:`SwapPlan`), or the source's own array when its nest defers
        its stores; None when it copies or aliases."""
        if self._swaps is None:
            return None
        plan = self._verdicts[SwapPlan.of, op]
        if plan is not None and plan.defers:
            frozen = MemoryBuffer(frame.get(op.operands[0]).data)
            self._deferred.setdefault(plan.nest, []).append(frozen)
            return frozen
        swapped = None if plan is None else \
            self._swap(frame.get(op.operands[0]), plan, frame)
        if swapped is not None:
            self.stats["snapshots_swapped"] += 1
        return swapped

    def run(self, frame, bound, domain_of: Callable, scalar_runner: Callable,
            counters: Tuple[str, str] = ("vectorized_sweeps",
                                         "vectorize_fallbacks"),
            frozen: Sequence[MemoryBuffer] = ()) -> None:
        """The one execution path of every vectorizable sweep op: runtime
        guards → box plan → :func:`run_boxes` → crosscheck → stats; the
        scalar runner when there is no kernel or a guard fails.

        Callers supply only what differs per op: ``bound`` is the op's
        :class:`BoundKernel` (or None); ``domain_of(kernel, externals)`` the
        ``(lowers, uppers[, steps])`` iteration domain the runtime guards
        check; ``scalar_runner`` is the reference semantics, used as fallback
        and as crosscheck oracle so the two cannot diverge; ``counters`` the
        (vectorized, fallback) stats keys.  The boxes defer their stores
        for ``frozen`` snapshots, which name their source; the scalar runner
        copies each first.
        """
        interp = self.interp
        interp.array_writes += 1
        done_key, fallback_key = counters
        if frozen:
            def scalar_runner(pointwise=scalar_runner):
                for snapshot in frozen:
                    snapshot.data = snapshot.data.copy(order="K")
                    self.stats["snapshots_copied"] += 1
                pointwise()
        if bound is not None:
            kernel = bound.kernel
            externals = [frame.get(v) for v in bound.external_values] + bound.constants
            domain = domain_of(kernel, externals)
            if not kernel.guards_pass(externals, *domain, frozen=frozen):
                bound = None
        if bound is None:
            self.stats[fallback_key] += 1
            scalar_runner()
            return
        lowers, uppers = tuple(domain[0]), tuple(domain[1])
        threads = interp.threads

        def vector_runner():
            start = _time.perf_counter()
            boxes, slabs, shape = self._plan_sweep(kernel, externals, lowers,
                                                   uppers)
            if threads > 1 and slabs == 1:
                self.stats["parallel_fallbacks"] += 1
            chosen: List[str] = []
            if frozen:
                deferred, store = deferring(kernel, externals)
                run_boxes(kernel, deferred, boxes, threads, chosen)
                store()
                self.stats["snapshots_deferred"] += len(frozen)
            else:
                run_boxes(kernel, externals, boxes, threads, chosen)
            if slabs > 1:
                self.stats["parallel_sweeps"] += 1
                self.stats["parallel_tiles"] += slabs
            if shape is not None:
                self.stats[shape + "_tiles"] += len(boxes)
            interp.kernels.record_invocation(kernel.label,
                                             _time.perf_counter() - start, chosen)

        if interp.execution_mode == "crosscheck":
            self._crosscheck(kernel, externals, vector_runner, scalar_runner)
        else:
            vector_runner()
        self.stats[done_key] += 1

    def _plan_sweep(self, kernel, externals, lowers, uppers):
        """One sweep's :func:`plan_sweep`, fed from the kernel (the strides
        of the first array it sweeps, the arrays it touches per point) and
        the thread count.  Every kernel's boxes may run independently: each
        store indexes every iteration dimension (``translate_memory_body``
        refuses one that does not), so boxes that partition the domain
        write disjoint regions."""
        return plan_sweep(lowers, uppers, self.interp.threads,
                          strides=kernel.dim_strides(externals),
                          arrays=kernel.arrays_per_point)

    def _crosscheck(self, kernel, externals, vector_runner: Callable,
                    scalar_runner: Callable) -> None:
        """Run the compiled kernel (tiled as planned) AND the scalar oracle
        and require bitwise agreement on every stored array.  Leaves the
        oracle's stores in memory."""
        targets = kernel.store_targets(externals)
        before = [t.copy() for t in targets]
        vector_runner()
        vectorized = [np.copy(t) for t in targets]
        for target, copy in zip(targets, before):
            np.copyto(target, copy)
        scalar_runner()
        for ref, vec in zip(targets, vectorized):
            if not np.array_equal(ref, vec, equal_nan=True):
                worst = float(np.max(np.abs(ref.astype(np.float64)
                                            - vec.astype(np.float64))))
                # The parameters are the last externals.
                constants = externals[len(externals) - len(kernel.parameters):]
                raise InterpreterError(
                    f"vectorized {kernel.label} diverged from the "
                    f"scalar oracle (max |diff| = {worst:g});\n"
                    f"--- kernel source ---\n{kernel.source}"
                    "--- parameters ---\n" + ", ".join(
                        f"c{k} = {value!r}" for k, value in enumerate(constants)))

    def _swap(self, source: MemoryBuffer, plan: SwapPlan,
              frame) -> Optional[MemoryBuffer]:
        """Point ``source`` at a spare array and return its current one,
        read-only, as the snapshot; None when another argument of the call
        or of the function names that memory.  After the nest,
        :meth:`_fill_shells` copies the shell it does not write; the
        displaced array is the buffer's next spare."""
        data = source.data
        names = 0
        for argument in self._arguments:
            holder = getattr(argument, "buffer", argument)
            if holder is source:
                names += 1
            elif np.may_share_memory(holder.data, data):
                return None
        for value in plan.others:
            other = frame.values.get(value)
            if isinstance(other, MemoryBuffer) and (
                    other is source or np.may_share_memory(other.data, data)):
                return None
        if names > 1:
            return None
        record = self._swaps.get(source)
        if record is None:
            record = self._swaps[source] = _SwapRecord(data)
        # The spare is the array the last swap displaced: its shell is the
        # one that swap's fill copied out of it, unless an array was written.
        current = record.key if record.stamp == self.interp.array_writes \
            else None
        source.data = record.spare if record.spare is not None \
            else spare_like(data)
        record.spare = data
        self._unfilled.setdefault(plan.nest, []).append(
            (source, data, plan, record, current))
        snapshot = data.view()
        snapshot.flags.writeable = False
        return MemoryBuffer(snapshot)

    def _fill_shells(self, swapped, frame, lowers: Sequence[int],
                     uppers: Sequence[int]) -> None:
        """Copy into each buffer's new array, from the array its snapshot
        kept, the shell the nest's stores leave unwritten over this domain —
        unless the new array holds that shell already: nothing has written
        an array since it was filled for the same domain."""
        values = frame.values
        for buffer, displaced, plan, record, current in swapped:
            key = (*lowers, *uppers, *map(int, map(values.__getitem__, plan.inner)),
                   *displaced.shape)
            record.stamp, record.key = self.interp.array_writes, (plan, key)
            if record.key == current:
                continue
            shell = plan.shells.get(key)
            if shell is None:
                bounds = list(map(int, map(values.__getitem__, plan.inner)))
                shell = plan.shells[key] = plan.shell(
                    list(lowers) + bounds[0::2], list(uppers) + bounds[1::2],
                    displaced.shape)
            if shell == _WHOLE:
                # Stores off the array may land anywhere: never current.
                record.stamp = None
            data = buffer.data
            for slab in shell:
                data[slab] = displaced[slab]


__all__ = [
    "plan_boxes",
    "plan_cache_boxes",
    "plan_sweep",
    "usable_cpus",
    "run_boxes",
    "deferring",
    "get_executor",
    "SwapPlan",
    "Sweep",
]
