"""Tests for stencil extraction, scf/OpenMP/GPU lowering and GPU data passes."""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.dialects import fir, gpu, memref, omp, scf, stencil
from repro.dialects.func import FuncOp
from repro.dialects.llvm import LLVMPointerType
from repro.runtime import Interpreter, SimulatedGPU
from repro.transforms import (
    ConvertParallelLoopsToGpuPass,
    ConvertStencilToSCFPass,
    ParallelLoopTilingPass,
)


class TestExtraction:
    def test_two_module_split(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("cpu")
        assert result.stencil_module is not None
        # FIR module keeps no stencil ops, stencil module keeps no FIR loops.
        assert not any(op.name.startswith("stencil.") for op in result.fir_module.walk())
        assert not any(isinstance(op, fir.DoLoopOp) for op in result.stencil_module.walk())

    def test_call_from_fir_to_extracted_function(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("cpu")
        calls = [op for op in result.fir_module.walk() if isinstance(op, fir.CallOp)]
        assert any(c.callee in result.extracted_functions for c in calls)

    def test_pointer_interoperability(self, small_gs_source):
        """FIR converts refs to !fir.llvm_ptr; the stencil fn takes !llvm.ptr."""
        result = repro.compile(small_gs_source).lower("cpu")
        converts = [
            op for op in result.fir_module.walk()
            if isinstance(op, fir.ConvertOp)
            and isinstance(op.results[0].type, fir.LLVMPointerType)
        ]
        assert converts
        stencil_fn = result.stencil_module.get_symbol(result.extracted_functions[0])
        assert any(isinstance(t, LLVMPointerType) for t in stencil_fn.function_type.inputs)

    def test_declaration_added_to_fir_module(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("cpu")
        declaration = result.fir_module.get_symbol(result.extracted_functions[0])
        assert isinstance(declaration, FuncOp) and declaration.is_declaration

    def test_extracted_function_is_isolated(self, small_pw_source):
        result = repro.compile(small_pw_source).lower("cpu")
        result.stencil_module.verify()  # IsolatedFromAbove is checked here


class TestStencilToSCF:
    def _lowered(self, source, target):
        # A private session: the pass below mutates the compiled module.
        result = repro.Session().lower(source, "cpu")
        ConvertStencilToSCFPass(target=target).apply(result.stencil_module)
        result.stencil_module.verify()
        return result

    def test_cpu_lowering_structure(self, small_gs_source):
        result = self._lowered(small_gs_source, "cpu")
        parallels = [op for op in result.stencil_module.walk() if isinstance(op, scf.ParallelOp)]
        fors = [op for op in result.stencil_module.walk() if isinstance(op, scf.ForOp)]
        assert len(parallels) == 1 and parallels[0].rank == 1
        assert len(fors) == 2  # inner two dimensions
        assert not any(op.name.startswith("stencil.") for op in result.stencil_module.walk())

    def test_gpu_lowering_coalesces(self, small_gs_source):
        result = self._lowered(small_gs_source, "gpu")
        parallels = [op for op in result.stencil_module.walk() if isinstance(op, scf.ParallelOp)]
        assert len(parallels) == 1 and parallels[0].rank == 3
        assert not any(isinstance(op, scf.ForOp) for op in result.stencil_module.walk())

    def test_lowered_execution_matches_reference(self, small_gs_source):
        result = self._lowered(small_gs_source, "cpu")
        data = gauss_seidel.initial_condition(10)
        work = data.copy(order="F")
        Interpreter(result.modules).call("gauss_seidel", work)
        assert np.allclose(work, gauss_seidel.reference_jacobi(data, 2))

    def test_gpu_flavour_execution_matches_reference(self, small_gs_source):
        result = self._lowered(small_gs_source, "gpu")
        data = gauss_seidel.initial_condition(10)
        work = data.copy(order="F")
        Interpreter(result.modules).call("gauss_seidel", work)
        assert np.allclose(work, gauss_seidel.reference_jacobi(data, 2))

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            ConvertStencilToSCFPass(target="fpga")

    @pytest.mark.parametrize("backend", ["cpu", "openmp", "gpu"])
    def test_a_written_field_is_one_snapshot_naming_itself(
            self, small_gs_source, backend):
        """Gauss–Seidel writes the field it loads: each load becomes one
        ``memref.snapshot`` that names the field as the buffer written, so it
        always copies, in one pass — no ``memref.alloc`` + ``memref.copy``."""
        loads = [op for op in repro.compile(small_gs_source).lower(
            "cpu").stencil_module.walk() if isinstance(op, stencil.LoadOp)]
        lowered = repro.compile(small_gs_source).lower(
            backend, lower_to_scf=True).stencil_module
        snapshots = [op for op in lowered.walk()
                     if isinstance(op, memref.SnapshotOp)]
        assert len(snapshots) == len(loads) == 1
        assert all(list(op.operands) == [op.operands[0]] * 2 for op in snapshots)
        assert not {"memref.alloc", "memref.copy"} & {op.name for op in lowered.walk()}


class TestOpenMPLowering:
    def test_openmp_structure(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("openmp", lower_to_scf=True)
        mod = result.stencil_module
        assert any(isinstance(op, omp.ParallelOp) for op in mod.walk())
        wsloops = [op for op in mod.walk() if isinstance(op, omp.WsLoopOp)]
        assert len(wsloops) == 1
        assert not any(
            isinstance(op, scf.ParallelOp) and op.parent_op() is not None
            and not isinstance(op.parent_op(), omp.WsLoopOp)
            for op in mod.walk()
        )

    def test_openmp_execution_matches_reference(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("openmp", lower_to_scf=True)
        data = gauss_seidel.initial_condition(10)
        work = data.copy(order="F")
        interp = Interpreter(result.modules)
        interp.call("gauss_seidel", work)
        assert np.allclose(work, gauss_seidel.reference_jacobi(data, 2))
        assert interp.stats["omp_regions"] >= 2  # one fork/join per sweep

    def test_unmodified_source_reused(self, small_gs_source):
        """The same serial Fortran is used for every target (a key paper claim)."""
        serial = repro.compile(small_gs_source).lower("flang-only")
        openmp = repro.compile(small_gs_source).lower("openmp")
        assert serial.source == openmp.source


class TestGpuLowering:
    def test_parallel_loops_to_gpu_outlining(self, small_gs_source):
        result = repro.Session().lower(small_gs_source, "cpu")
        ConvertStencilToSCFPass(target="gpu").apply(result.stencil_module)
        ParallelLoopTilingPass((4, 4, 1)).apply(result.stencil_module)
        gpu_pass = ConvertParallelLoopsToGpuPass()
        gpu_pass.apply(result.stencil_module)
        result.stencil_module.verify()
        assert gpu_pass.outlined
        assert any(isinstance(op, gpu.GPUModuleOp) for op in result.stencil_module.walk())
        launches = [op for op in result.stencil_module.walk() if isinstance(op, gpu.LaunchFuncOp)]
        assert len(launches) == 1
        assert launches[0].block_size[0] == 4

    def test_outlined_kernel_executes_correctly(self):
        source = gauss_seidel.generate_source(6, niters=1)
        result = repro.Session().lower(source, "cpu")
        ConvertStencilToSCFPass(target="gpu").apply(result.stencil_module)
        ParallelLoopTilingPass((2, 2, 2)).apply(result.stencil_module)
        ConvertParallelLoopsToGpuPass().apply(result.stencil_module)
        data = gauss_seidel.initial_condition(6)
        work = data.copy(order="F")
        gpu_device = SimulatedGPU()
        interp = Interpreter(result.modules, gpu=gpu_device)
        interp.call("gauss_seidel", work)
        assert np.allclose(work, gauss_seidel.reference_jacobi(data, 1))
        assert gpu_device.summary()["launches"] == 1


class TestGpuDataManagement:
    def test_optimised_strategy_structure(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("gpu", data_strategy="optimised")
        names = [
            op.sym_name for op in result.stencil_module.walk()
            if isinstance(op, FuncOp)
        ]
        assert any(n.startswith("_gpu_alloc_") for n in names)
        assert any(n.startswith("_gpu_free_") for n in names)
        assert any(isinstance(op, gpu.AllocOp) for op in result.stencil_module.walk())
        assert any(isinstance(op, gpu.MemcpyOp) for op in result.stencil_module.walk())

    def test_host_register_strategy_structure(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("gpu", data_strategy="host_register")
        assert any(isinstance(op, gpu.HostRegisterOp) for op in result.stencil_module.walk())

    def test_data_calls_hoisted_outside_iteration_loop(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("gpu")
        func_op = next(
            op for op in result.fir_module.walk()
            if isinstance(op, FuncOp) and op.sym_name == "gauss_seidel"
        )
        top_level_calls = [
            op.callee for op in func_op.entry_block.ops if isinstance(op, fir.CallOp)
        ]
        assert any(c.startswith("_gpu_alloc_") for c in top_level_calls)
        assert any(c.startswith("_gpu_free_") for c in top_level_calls)

    def test_both_strategies_compute_identical_results(self, small_gs_source):
        reference = gauss_seidel.reference_jacobi(gauss_seidel.initial_condition(10), 2)
        for strategy in ("optimised", "host_register"):
            result = repro.compile(small_gs_source).lower("gpu", data_strategy=strategy)
            work = gauss_seidel.initial_condition(10)
            interp = result.interpreter(gpu=SimulatedGPU())
            interp.call("gauss_seidel", work)
            assert np.allclose(work, reference), strategy

    def test_transfer_traffic_differs_between_strategies(self, small_gs_source):
        volumes = {}
        for strategy in ("optimised", "host_register"):
            result = repro.compile(small_gs_source).lower("gpu", data_strategy=strategy)
            device = SimulatedGPU()
            interp = result.interpreter(gpu=device)
            interp.call("gauss_seidel", gauss_seidel.initial_condition(10))
            volumes[strategy] = device.transferred_bytes()
        assert volumes["host_register"] > volumes["optimised"]

    def test_kernel_launch_per_sweep(self, small_gs_source):
        result = repro.compile(small_gs_source).lower("gpu")
        device = SimulatedGPU()
        interp = result.interpreter(gpu=device)
        interp.call("gauss_seidel", gauss_seidel.initial_condition(10))
        assert device.summary()["launches"] == 2  # niters = 2
