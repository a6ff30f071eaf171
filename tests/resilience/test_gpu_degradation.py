"""GPU graceful degradation: OOM -> host staging -> scalar.

Also the device-pool failure-path coverage: what the OOM diagnostic
actually says, how peak tracking behaves across alloc/dealloc cycles, and
that a forced launch fallback is counted and still computes the right bits.
"""

import numpy as np
import pytest

from repro.dialects import arith, memref, scf
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.fuzz import DEFAULT_CONFIG, DifferentialRunner, generate_spec
from repro.ir import Builder, MemRefType, f64, index
from repro.resilience import AllocFault, FaultInjector, FaultPlan, RecoveryReport
from repro.runtime import Interpreter, SimulatedGPU
from repro.runtime.gpu_runtime import DeviceMemoryPool
from repro.runtime.memory import MemoryBuffer
from repro.transforms import (
    ConvertParallelLoopsToGpuPass,
    ParallelLoopTilingPass,
)


def build_launch_module(n=8):
    """A module whose func 'shift' launches an outlined gpu.func computing
    ``dst[i, j] = src[i-1, j] * 2`` over ``[1, n-1)²`` (the engine-test
    idiom: tile the parallel loop, outline it to a gpu kernel)."""
    mtype = MemRefType((n, n), f64)
    fn = FuncOp.build("shift", [mtype, mtype], [])
    b = Builder.at_end(fn.entry_block)
    dst, src = fn.entry_block.args
    low = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    high = b.insert(arith.ConstantOp.from_int(n - 1, index)).results[0]
    one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    parallel = b.insert(scf.ParallelOp([low, low], [high, high], [one, one]))
    body = Builder.at_end(parallel.body.block)
    i, j = parallel.body.block.args
    amount = body.insert(arith.ConstantOp.from_int(1, index)).results[0]
    shifted = body.insert(arith.SubiOp(i, amount)).results[0]
    load = body.insert(memref.LoadOp(src, [shifted, j])).results[0]
    two = body.insert(arith.ConstantOp.from_float(2.0)).results[0]
    value = body.insert(arith.MulfOp(load, two)).results[0]
    body.insert(memref.StoreOp(value, dst, [i, j]))
    parallel.body.block.add_op(scf.YieldOp([]))
    b.insert(ReturnOp([]))
    module = ModuleOp([fn])
    ParallelLoopTilingPass((4, 4)).apply(module)
    ConvertParallelLoopsToGpuPass().apply(module)
    module.verify()
    return module


def nbytes(shape):
    return int(np.prod(shape)) * 8


class TestDeviceMemoryPoolFailurePaths:
    def test_oom_message_names_buffer_usage_and_live_allocations(self):
        pool = DeviceMemoryPool(capacity_bytes=200)
        held = MemoryBuffer.for_array((4, 4), f64, space="device",
                                      label="halo")
        pool.allocate(held)  # 128 of 200 bytes
        big = MemoryBuffer.for_array((4, 4), f64, space="device",
                                     label="scratch")
        with pytest.raises(MemoryError) as err:
            pool.allocate(big)
        message = str(err.value)
        assert "'scratch' (128 bytes)" in message
        assert "128 bytes already in use of 200 capacity" in message
        assert "halo=128" in message

    def test_oom_message_on_empty_pool_says_none(self):
        pool = DeviceMemoryPool(capacity_bytes=64)
        buffer = MemoryBuffer.for_array((4, 4), f64, space="device")
        with pytest.raises(MemoryError,
                           match="'<unnamed>'.*live allocations: none"):
            pool.allocate(buffer)

    def test_peak_tracks_high_water_mark_across_alloc_dealloc_alloc(self):
        pool = DeviceMemoryPool(capacity_bytes=1000)
        a = MemoryBuffer.for_array((4, 4), f64, space="device", label="a")
        b = MemoryBuffer.for_array((4, 4), f64, space="device", label="b")
        c = MemoryBuffer.for_array((2, 4), f64, space="device", label="c")
        pool.allocate(a)
        assert pool.peak_bytes == nbytes((4, 4))
        pool.allocate(b)
        assert pool.peak_bytes == 2 * nbytes((4, 4))
        assert pool.release(a) == nbytes((4, 4))
        pool.allocate(c)
        # The later, smaller allocation never disturbs the high-water mark.
        assert pool.in_use_bytes == nbytes((4, 4)) + nbytes((2, 4))
        assert pool.peak_bytes == 2 * nbytes((4, 4))
        assert pool.alloc_count == 3
        assert pool.dealloc_count == 1

    def test_release_of_unowned_buffer_reclaims_nothing(self):
        pool = DeviceMemoryPool(capacity_bytes=1000)
        stranger = MemoryBuffer.for_array((4,), f64, space="device")
        assert pool.release(stranger) == 0
        assert pool.dealloc_count == 0


class TestDegradationLadder:
    def test_injected_alloc_failure_message_names_label_and_device(self):
        injector = FaultInjector(FaultPlan(alloc_faults=(AllocFault(0),)))
        gpu = SimulatedGPU(alloc_hook=injector.on_device_alloc)
        with pytest.raises(MemoryError,
                           match="injected device allocation failure for "
                                 "'halo' on V100"):
            gpu.alloc((4, 4), f64, label="halo")

    def test_oom_counts_the_miss_and_the_staging(self):
        gpu = SimulatedGPU(memory_bytes=200)
        gpu.alloc((4, 4), f64, label="first")  # 128 of 200
        gpu.alloc_degraded((4, 4), f64, label="second")
        assert gpu.degradation == {"oom_detected": 1, "oom_host_staged": 1}
        assert gpu.allocated_bytes == 128

    def test_oom_without_idle_buffers_stages_in_host_memory(self):
        gpu = SimulatedGPU(memory_bytes=200)
        gpu.alloc((4, 4), f64, label="busy")
        staged = gpu.alloc_degraded((4, 4), f64, label="late")
        assert staged.space == "host"
        assert staged.registered
        assert gpu.degradation["oom_host_staged"] == 1
        # Host staging zero-fills exactly like a device allocation.
        assert not staged.data.any()

    def test_dealloc_unregisters_host_staged_buffer(self):
        gpu = SimulatedGPU(memory_bytes=0)
        staged = gpu.alloc_degraded((4, 4), f64, label="staged")
        assert staged.registered
        assert gpu.dealloc(staged) == 0  # never held pool bytes
        assert not staged.registered

    def test_degradation_counters_in_summary(self):
        gpu = SimulatedGPU(memory_bytes=0)
        gpu.alloc_degraded((2, 2), f64)
        assert gpu.summary()["degradation"]["oom_host_staged"] == 1

    def test_degraded_run_stays_bitwise_identical(self):
        """The ladder's whole point: a run that loses the device allocation
        race computes exactly the same bits as the healthy run."""
        runner = DifferentialRunner()
        spec = generate_spec(0, DEFAULT_CONFIG)
        baseline, _ = runner._run_plain(spec, "gpu", "vectorize", 1, {})
        report = RecoveryReport()
        injector = FaultInjector(
            FaultPlan(alloc_faults=(AllocFault(index=0, count=2),)), report)
        gpu = SimulatedGPU(alloc_hook=injector.on_device_alloc)
        work, _ = runner._run_plain(spec, "gpu", "vectorize", 1, {}, gpu=gpu)
        for name in baseline:
            np.testing.assert_array_equal(work[name], baseline[name])
        assert gpu.degradation["oom_detected"] >= 1


class TestForcedLaunchFallback:
    def test_forced_fallback_is_counted_and_correct(self):
        """With the launch engine refusing every kernel, the interpreter
        falls back to the per-thread scalar path: counted in
        ``gpu_launch_fallbacks`` and still matching the healthy run."""

        class RefusingEngine:
            def kernel_for(self, op, kernel_op):
                return None

        n = 8
        module = build_launch_module(n)
        rng = np.random.default_rng(7)
        src = np.asfortranarray(rng.random((n, n)))
        healthy_dst = np.zeros((n, n), order="F")
        healthy = Interpreter(module, gpu=SimulatedGPU(),
                              execution_mode="vectorize")
        healthy.call("shift", healthy_dst, src)
        assert healthy.stats["gpu_launches_vectorized"] >= 1

        forced_dst = np.zeros((n, n), order="F")
        forced = Interpreter(module, gpu=SimulatedGPU(),
                             execution_mode="vectorize")
        forced.sweep._gpu_engine = RefusingEngine()
        forced.call("shift", forced_dst, src)
        assert forced.stats["gpu_launch_fallbacks"] >= 1
        assert forced.stats["gpu_launches_vectorized"] == 0
        np.testing.assert_array_equal(forced_dst, healthy_dst)
