"""Simulated GPU device with streams, events and a device memory pool.

There is no physical GPU (nor CUDA toolchain) available, so the ``gpu``
dialect is executed against an in-process device model: device allocations are
ordinary numpy buffers tagged ``space="device"`` drawn from an accounted
:class:`DeviceMemoryPool`, and every transfer between host and device is
recorded so the paper's data-management comparison (Figure 5:
``gpu.host_register`` vs the bespoke optimised data pass) can be reproduced in
terms of transfer volume and modelled time.

On top of the flat event lists (kept for byte accounting), the device keeps a
**stream timeline**: transfers and launches are enqueued onto ordered
:class:`GpuStream` objects, each event carrying a modelled start time and
duration.  Work on different streams may overlap — subject to two dependency
rules that mirror real asynchronous execution: a launch never starts before
the last ``h2d`` transfer has landed, and a ``d2h`` transfer never starts
before the last launch has finished.  ``synchronize()`` returns the modelled
makespan and ``modelled_overlap_seconds()`` how much PCIe time the streams hid
behind compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.types import TypeAttribute
from .memory import MemoryBuffer


@dataclass
class GPUTransfer:
    """One host<->device transfer event."""

    direction: str  # 'h2d' or 'd2h'
    nbytes: int
    reason: str = "memcpy"  # 'memcpy' | 'on_demand' | 'register'


@dataclass
class KernelLaunch:
    """One kernel launch event."""

    kernel: str
    grid: Tuple[int, int, int]
    block: Tuple[int, int, int]
    args_nbytes: int = 0
    stream: int = 0
    #: Measured wall time of the launch's execution (set by the interpreter
    #: once the kernel body — vectorized or scalar — has run).
    seconds: float = 0.0


@dataclass
class StreamEvent:
    """One modelled event on a stream's timeline."""

    kind: str  # 'h2d' | 'd2h' | 'd2d' | 'launch'
    label: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class GpuStream:
    """An ordered stream: events on one stream execute back to back."""

    def __init__(self, stream_id: int):
        self.stream_id = stream_id
        self.events: List[StreamEvent] = []
        self.ready_at = 0.0

    def enqueue(self, kind: str, label: str, duration: float,
                not_before: float = 0.0) -> StreamEvent:
        start = max(self.ready_at, not_before)
        event = StreamEvent(kind, label, start, duration)
        self.events.append(event)
        self.ready_at = event.end
        return event

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<GpuStream {self.stream_id} events={len(self.events)} "
                f"ready_at={self.ready_at:.3g}>")


class DeviceMemoryPool:
    """Accounted device memory: every allocation is tracked until it is
    released, and an over-capacity request raises a :class:`MemoryError`
    naming the requested buffer and the live allocations holding the memory.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity_bytes = int(capacity_bytes)
        self.in_use_bytes = 0
        self.peak_bytes = 0
        #: id(buffer) -> (label, nbytes) for every live allocation.
        self._live: Dict[int, Tuple[str, int]] = {}
        self.alloc_count = 0
        self.dealloc_count = 0

    def allocate(self, buffer: MemoryBuffer) -> None:
        if self.in_use_bytes + buffer.nbytes > self.capacity_bytes:
            raise MemoryError(
                f"simulated GPU out of memory allocating "
                f"'{buffer.label or '<unnamed>'}' ({buffer.nbytes} bytes): "
                f"{self.in_use_bytes} bytes already in use of "
                f"{self.capacity_bytes} capacity; live allocations: "
                f"{self.breakdown() or 'none'}"
            )
        self._live[id(buffer)] = (buffer.label or "<unnamed>", buffer.nbytes)
        self.in_use_bytes += buffer.nbytes
        self.peak_bytes = max(self.peak_bytes, self.in_use_bytes)
        self.alloc_count += 1

    def release(self, buffer: MemoryBuffer) -> int:
        """Return the buffer's bytes to the pool; returns how many bytes were
        reclaimed (0 for a buffer the pool does not own)."""
        entry = self._live.pop(id(buffer), None)
        if entry is None:
            return 0
        self.in_use_bytes -= entry[1]
        self.dealloc_count += 1
        return entry[1]

    def breakdown(self) -> str:
        """The live allocations as a ``label=bytes`` comma list."""
        return ", ".join(f"{label}={nbytes}" for label, nbytes in
                         self._live.values())


class SimulatedGPU:
    """A single simulated device (defaults follow an Nvidia V100-SXM2-16GB).

    ``num_streams`` caps how many concurrent streams the device exposes:
    callers enqueue against a *stream assignment* (any non-negative integer,
    e.g. the compile-time assignment the GPU data-management pass annotated
    on a launch) and the device folds it onto a physical stream modulo this
    count, so the same compiled module runs on any stream configuration.
    """

    #: Stream assignment conventionally used for prefetch/copy traffic; folds
    #: onto stream 0 when the device exposes a single stream.
    COPY_STREAM = 1

    def __init__(
        self,
        name: str = "V100",
        memory_bytes: int = 16 * 1024**3,
        pcie_bandwidth: float = 12e9,      # effective host<->device B/s
        memory_bandwidth: float = 830e9,   # effective HBM2 B/s (STREAM-like)
        peak_flops: float = 7.0e12,        # FP64
        kernel_launch_latency: float = 8e-6,
        num_streams: int = 1,
        alloc_hook: Optional[Callable[[str], bool]] = None,
    ):
        self.name = name
        self.memory_bytes = memory_bytes
        self.pcie_bandwidth = pcie_bandwidth
        self.memory_bandwidth = memory_bandwidth
        self.peak_flops = peak_flops
        self.kernel_launch_latency = kernel_launch_latency
        self.num_streams = max(1, int(num_streams))
        #: Deterministic fault injection: called with the allocation label
        #: before every device allocation; returning True simulates an OOM
        #: (see :class:`repro.resilience.FaultInjector.on_device_alloc`).
        self.alloc_hook = alloc_hook
        #: Live device buffers flagged reusable: the first eviction rung of
        #: :meth:`alloc_degraded` reclaims them under memory pressure.
        self._idle: List[MemoryBuffer] = []
        #: Graceful-degradation ladder counters (each rung of
        #: :meth:`alloc_degraded`), folded into a RecoveryReport by chaos
        #: runs.
        self.degradation: Dict[str, int] = {
            "oom_detected": 0,
            "oom_evictions": 0,
            "oom_host_staged": 0,
        }

        self.pool = DeviceMemoryPool(memory_bytes)
        self.allocations: List[MemoryBuffer] = []
        self.registered_buffers: List[MemoryBuffer] = []
        self.transfers: List[GPUTransfer] = []
        self.launches: List[KernelLaunch] = []
        self.streams: Dict[int, GpuStream] = {}
        #: Per-kernel invocation counts and cumulative measured wall time, in
        #: the same shape as ``KernelCompiler.stats`` so
        #: :func:`repro.harness.kernel_stats_table` renders either.
        self.stats: Dict[str, object] = {"per_kernel": {}}
        # Cross-stream dependency horizons (see module docstring).
        self._last_h2d_done = 0.0
        self._last_launch_done = 0.0

    @property
    def allocated_bytes(self) -> int:
        return self.pool.in_use_bytes

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------

    def stream(self, assignment: int = 0) -> GpuStream:
        """The physical stream for a stream assignment (modulo the device's
        stream count)."""
        index = int(assignment) % self.num_streams
        existing = self.streams.get(index)
        if existing is None:
            existing = self.streams[index] = GpuStream(index)
        return existing

    def _enqueue(self, assignment: int, kind: str, label: str,
                 duration: float, not_before: float = 0.0) -> StreamEvent:
        return self.stream(assignment).enqueue(kind, label, duration, not_before)

    def synchronize(self) -> float:
        """The modelled makespan: when the last stream drains."""
        return max((s.ready_at for s in self.streams.values()), default=0.0)

    def modelled_serial_seconds(self) -> float:
        """Total modelled event time if nothing overlapped."""
        return sum(e.duration for s in self.streams.values() for e in s.events)

    def modelled_overlap_seconds(self) -> float:
        """How much modelled time the streams hid by running concurrently."""
        return self.modelled_serial_seconds() - self.synchronize()

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    def alloc(self, shape: Sequence[int], element_type: TypeAttribute,
              label: str = "") -> MemoryBuffer:
        """Strict device allocation: a capacity miss (or an injected
        allocation failure) raises :class:`MemoryError` — the fail-fast
        baseline.  Callers wanting the recovery ladder use
        :meth:`alloc_degraded`."""
        if self.alloc_hook is not None and self.alloc_hook(label):
            raise MemoryError(
                f"injected device allocation failure for "
                f"'{label or '<unnamed>'}' on {self.name}"
            )
        buffer = MemoryBuffer.for_array(shape, element_type, space="device", label=label)
        self.pool.allocate(buffer)
        self.allocations.append(buffer)
        return buffer

    def alloc_degraded(self, shape: Sequence[int], element_type: TypeAttribute,
                       label: str = "") -> MemoryBuffer:
        """Device allocation with the graceful-degradation ladder.

        Rung 0 is a plain :meth:`alloc`.  On OOM (real or injected): rung 1
        evicts idle pool buffers and retries on device; rung 2 stages the
        buffer in registered host memory instead — the kernel still runs
        (host-space arguments drag their data across PCIe on demand at every
        launch, visible in the transfer stats), and because host staging
        zero-fills exactly like a device allocation the computed results
        stay bitwise identical.  Every rung taken is counted in
        ``self.degradation``.
        """
        try:
            return self.alloc(shape, element_type, label=label)
        except MemoryError:
            self.degradation["oom_detected"] += 1
        if self.evict_idle() > 0:
            try:
                return self.alloc(shape, element_type, label=label)
            except MemoryError:
                self.degradation["oom_detected"] += 1
        staged = MemoryBuffer.for_array(shape, element_type, space="host",
                                        label=label or "oom_staged")
        self.host_register(staged)
        self.degradation["oom_host_staged"] += 1
        return staged

    def mark_idle(self, buffer: MemoryBuffer) -> None:
        """Flag a live device buffer as reusable: it stays allocated (and
        keeps its contents) but may be evicted by :meth:`alloc_degraded`
        under memory pressure."""
        if buffer not in self._idle:
            self._idle.append(buffer)

    def mark_busy(self, buffer: MemoryBuffer) -> None:
        """Withdraw a buffer from the eviction candidates."""
        if buffer in self._idle:
            self._idle.remove(buffer)

    def evict_idle(self) -> int:
        """Free every idle device buffer; returns the bytes reclaimed."""
        reclaimed = 0
        evicted, self._idle = self._idle, []
        for buffer in evicted:
            freed = self.dealloc(buffer)
            reclaimed += freed
            if freed:
                self.degradation["oom_evictions"] += 1
        return reclaimed

    def dealloc(self, buffer: MemoryBuffer) -> int:
        """Free a device buffer, returning its bytes to the accounting pool;
        returns the number of bytes reclaimed.  Host-staged buffers from the
        degradation ladder are unregistered instead (they never held pool
        bytes)."""
        if buffer.registered and buffer.space == "host":
            self.host_unregister(buffer)
        if buffer in self._idle:
            self._idle.remove(buffer)
        reclaimed = self.pool.release(buffer)
        if buffer in self.allocations:
            self.allocations.remove(buffer)
        return reclaimed

    def memcpy(self, dst: MemoryBuffer, src: MemoryBuffer,
               stream: int = 0) -> None:
        np.copyto(dst.data, src.data)
        if dst.space == "device" and src.space == "host":
            self.transfers.append(GPUTransfer("h2d", src.nbytes))
            event = self._enqueue(stream, "h2d", dst.label or src.label,
                                  src.nbytes / self.pcie_bandwidth)
            self._last_h2d_done = max(self._last_h2d_done, event.end)
        elif dst.space == "host" and src.space == "device":
            self.transfers.append(GPUTransfer("d2h", src.nbytes))
            # Results cannot leave the device before the compute producing
            # them has finished.
            self._enqueue(stream, "d2h", dst.label or src.label,
                          src.nbytes / self.pcie_bandwidth,
                          not_before=self._last_launch_done)
        else:
            # device-to-device copies are free of PCIe traffic but still
            # occupy HBM bandwidth on their stream.
            self._enqueue(stream, "d2d", dst.label or src.label,
                          src.nbytes / self.memory_bandwidth)

    def host_register(self, buffer: MemoryBuffer) -> None:
        buffer.registered = True
        if buffer not in self.registered_buffers:
            self.registered_buffers.append(buffer)
        self.transfers.append(GPUTransfer("h2d", 0, reason="register"))

    def host_unregister(self, buffer: MemoryBuffer) -> None:
        buffer.registered = False
        if buffer in self.registered_buffers:
            self.registered_buffers.remove(buffer)

    # ------------------------------------------------------------------
    # Kernel execution accounting
    # ------------------------------------------------------------------

    def record_launch(self, kernel: str, grid: Sequence[int], block: Sequence[int],
                      arg_buffers: Sequence[MemoryBuffer] = (),
                      stream: int = 0) -> KernelLaunch:
        launch = KernelLaunch(kernel, tuple(grid), tuple(block),
                              stream=int(stream) % self.num_streams)
        on_demand_bytes = 0
        for buffer in arg_buffers:
            launch.args_nbytes += buffer.nbytes
            if buffer.space == "host":
                # A kernel touching registered / paged host memory drags the
                # data across PCIe on demand — both directions, every launch,
                # which is exactly why the paper's initial strategy was slow.
                self.transfers.append(
                    GPUTransfer("h2d", buffer.nbytes, reason="on_demand")
                )
                self.transfers.append(
                    GPUTransfer("d2h", buffer.nbytes, reason="on_demand")
                )
                on_demand_bytes += 2 * buffer.nbytes
        self.launches.append(launch)
        per_kernel: Dict[str, Dict[str, float]] = self.stats["per_kernel"]  # type: ignore[assignment]
        entry = per_kernel.setdefault(kernel, {"invocations": 0, "seconds": 0.0})
        entry["invocations"] += 1
        # Timeline: on-demand paging serialises with the launch on its own
        # stream (it is synchronous paging, not an async prefetch), and the
        # launch cannot start before explicitly staged data has landed.
        if on_demand_bytes:
            self._enqueue(stream, "h2d", f"{kernel}:on_demand",
                          on_demand_bytes / self.pcie_bandwidth)
        modelled = self.kernel_launch_latency + \
            launch.args_nbytes / self.memory_bandwidth
        event = self._enqueue(stream, "launch", kernel, modelled,
                              not_before=self._last_h2d_done)
        self._last_launch_done = max(self._last_launch_done, event.end)
        return launch

    def finish_launch(self, launch: KernelLaunch, seconds: float) -> None:
        """Attach the measured wall time of a launch's execution."""
        launch.seconds += seconds
        per_kernel: Dict[str, Dict[str, float]] = self.stats["per_kernel"]  # type: ignore[assignment]
        entry = per_kernel.setdefault(launch.kernel,
                                      {"invocations": 0, "seconds": 0.0})
        entry["seconds"] += seconds

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def transferred_bytes(self, direction: Optional[str] = None,
                          reason: Optional[str] = None) -> int:
        total = 0
        for t in self.transfers:
            if direction is not None and t.direction != direction:
                continue
            if reason is not None and t.reason != reason:
                continue
            total += t.nbytes
        return total

    def summary(self) -> Dict[str, object]:
        per_kernel: Dict[str, Dict[str, float]] = self.stats["per_kernel"]  # type: ignore[assignment]
        return {
            "launches": len(self.launches),
            "h2d_bytes": self.transferred_bytes("h2d"),
            "d2h_bytes": self.transferred_bytes("d2h"),
            "on_demand_bytes": self.transferred_bytes(reason="on_demand"),
            "allocated_bytes": self.allocated_bytes,
            "peak_allocated_bytes": self.pool.peak_bytes,
            "launch_seconds": sum(l.seconds for l in self.launches),
            "kernel_invocations": {
                name: int(entry["invocations"]) for name, entry in per_kernel.items()
            },
            "streams": len(self.streams),
            "modelled_span_seconds": self.synchronize(),
            "modelled_overlap_seconds": self.modelled_overlap_seconds(),
            "degradation": dict(self.degradation),
        }


__all__ = [
    "SimulatedGPU",
    "GPUTransfer",
    "KernelLaunch",
    "GpuStream",
    "StreamEvent",
    "DeviceMemoryPool",
]
