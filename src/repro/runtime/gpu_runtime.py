"""Simulated GPU device with a device memory pool.

There is no physical GPU (nor CUDA toolchain) available, so the ``gpu``
dialect is executed against an in-process device: device allocations are
ordinary numpy buffers tagged ``space="device"`` drawn from an accounted
:class:`DeviceMemoryPool`, the bytes moved between host and device are
counted by direction and reason, and each kernel's launches and measured wall
time are summed.  The paper's data-management comparison (Figure 5:
``gpu.host_register`` vs the bespoke optimised data pass) is reproduced in
bytes moved and launches run.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..ir.types import TypeAttribute
from .memory import MemoryBuffer


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
    """A single simulated device (capacity of an Nvidia V100-SXM2-16GB)."""

    name = "V100"

    def __init__(
        self,
        memory_bytes: int = 16 * 1024**3,
        alloc_hook: Optional[Callable[[], bool]] = None,
    ):
        self.memory_bytes = memory_bytes
        #: Deterministic fault injection: called before every device
        #: allocation; returning True simulates an OOM
        #: (see :class:`repro.resilience.FaultInjector.on_device_alloc`).
        self.alloc_hook = alloc_hook
        #: Graceful-degradation counters (each step of
        #: :meth:`alloc_degraded`), folded into a RecoveryReport by chaos
        #: runs.
        self.degradation: Dict[str, int] = {"oom_detected": 0, "oom_host_staged": 0}

        self.pool = DeviceMemoryPool(memory_bytes)
        #: Bytes moved between host and device, keyed by (direction,
        #: reason): 'h2d' or 'd2h', by 'memcpy' or 'on_demand'.
        self.moved_bytes: Counter[Tuple[str, str]] = Counter()
        #: Per-kernel launch counts and cumulative measured wall time, in
        #: the same shape as ``KernelCompiler.stats`` so
        #: :func:`repro.harness.kernel_stats_table` renders either.
        self.stats: Dict[str, object] = {"per_kernel": {}}

    @property
    def allocated_bytes(self) -> int:
        return self.pool.in_use_bytes

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------

    def alloc(self, shape: Sequence[int], element_type: TypeAttribute,
              label: str = "") -> MemoryBuffer:
        """Strict device allocation: a capacity miss (or an injected
        allocation failure) raises :class:`MemoryError` — the fail-fast
        baseline.  Callers wanting host staging on OOM use
        :meth:`alloc_degraded`."""
        if self.alloc_hook is not None and self.alloc_hook():
            raise MemoryError(
                f"injected device allocation failure for "
                f"'{label or '<unnamed>'}' on {self.name}"
            )
        buffer = MemoryBuffer.for_array(shape, element_type, space="device", label=label)
        self.pool.allocate(buffer)
        return buffer

    def alloc_degraded(self, shape: Sequence[int], element_type: TypeAttribute,
                       label: str = "") -> MemoryBuffer:
        """Device allocation that degrades instead of failing.

        A plain :meth:`alloc` first.  On OOM (real or injected) the buffer is
        staged in registered host memory instead — the kernel still runs
        (host-space arguments drag their data across PCIe on demand at every
        launch, visible in the transfer stats), and because host staging
        zero-fills exactly like a device allocation the computed results
        stay bitwise identical.  Both the miss and the staging are counted
        in ``self.degradation``.  Nothing frees a device buffer before its
        ``gpu.dealloc`` (or its launch function's return), so there is no
        idle buffer to evict first.
        """
        try:
            return self.alloc(shape, element_type, label=label)
        except MemoryError:
            self.degradation["oom_detected"] += 1
        staged = MemoryBuffer.for_array(shape, element_type, space="host",
                                        label=label or "oom_staged")
        self.host_register(staged)
        self.degradation["oom_host_staged"] += 1
        return staged

    def dealloc(self, buffer: MemoryBuffer) -> int:
        """Free a device buffer, returning its bytes to the accounting pool;
        returns the number of bytes reclaimed.  Host-staged buffers from
        :meth:`alloc_degraded` are unregistered instead (they never held pool
        bytes)."""
        if buffer.space == "host":
            buffer.registered = False
        return self.pool.release(buffer)

    def memcpy(self, dst: MemoryBuffer, src: MemoryBuffer) -> None:
        np.copyto(dst.data, src.data)
        if dst.space == "device" and src.space == "host":
            self.moved_bytes["h2d", "memcpy"] += src.nbytes
        elif dst.space == "host" and src.space == "device":
            self.moved_bytes["d2h", "memcpy"] += src.nbytes

    def host_register(self, buffer: MemoryBuffer) -> None:
        buffer.registered = True

    # ------------------------------------------------------------------
    # Kernel execution accounting
    # ------------------------------------------------------------------

    def record_launch(self, kernel: str, buffers: Sequence[MemoryBuffer],
                      seconds: float) -> None:
        """Account one finished launch of ``kernel`` over ``buffers`` that
        took ``seconds`` of wall time."""
        for buffer in buffers:
            if buffer.space == "host":
                # A kernel touching registered / paged host memory drags the
                # data across PCIe on demand — both directions, every launch,
                # which is exactly why the paper's initial strategy was slow.
                self.moved_bytes["h2d", "on_demand"] += buffer.nbytes
                self.moved_bytes["d2h", "on_demand"] += buffer.nbytes
        per_kernel: Dict[str, Dict[str, float]] = self.stats["per_kernel"]  # type: ignore[assignment]
        entry = per_kernel.setdefault(kernel, {"invocations": 0, "seconds": 0.0})
        entry["invocations"] += 1
        entry["seconds"] += seconds

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def transferred_bytes(self, direction: Optional[str] = None,
                          reason: Optional[str] = None) -> int:
        return sum(nbytes for (d, r), nbytes in self.moved_bytes.items()
                   if direction in (None, d) and reason in (None, r))

    def summary(self) -> Dict[str, object]:
        per_kernel: Dict[str, Dict[str, float]] = self.stats["per_kernel"]  # type: ignore[assignment]
        return {
            "launches": sum(int(e["invocations"]) for e in per_kernel.values()),
            "h2d_bytes": self.transferred_bytes("h2d"),
            "d2h_bytes": self.transferred_bytes("d2h"),
            "on_demand_bytes": self.transferred_bytes(reason="on_demand"),
            "allocated_bytes": self.allocated_bytes,
            "peak_allocated_bytes": self.pool.peak_bytes,
            "launch_seconds": sum(e["seconds"] for e in per_kernel.values()),
            "kernel_invocations": {
                name: int(entry["invocations"]) for name, entry in per_kernel.items()
            },
            "degradation": dict(self.degradation),
        }


__all__ = [
    "SimulatedGPU",
    "DeviceMemoryPool",
]
