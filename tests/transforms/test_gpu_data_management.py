"""Edge-case tests for the GPU data-management passes.

The happy path (one stencil function, one call site inside a time loop, 3-D
tiles) is covered in ``test_extraction_lowering.py``; these tests pin the
branches around it: call sites with **no enclosing loop** (anchor falls back
to the call itself), **multiple call sites** of one stencil function (every
site must be rewritten to the device pointers), the Listing 4 tile of each
lowered launch on **3-D and 2-D domains**, and the absence of any
stream/prefetch placement attribute.
"""

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel
from repro.dialects import fir
from repro.dialects.func import FuncOp
from repro.ir import print_module
from repro.runtime import SimulatedGPU
from repro.transforms.gpu_data_management import GpuOptimisedDataPass


def _stencil_calls(fir_module, extracted):
    return [op for op in fir_module.walk()
            if isinstance(op, fir.CallOp) and op.callee in extracted]


def _average_reference(data: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of Listing 1's 2-D averaging kernel."""
    out = data.copy()
    out[1:-1, 1:-1] = (data[1:-1, :-2] + data[1:-1, 2:]
                       + data[:-2, 1:-1] + data[2:, 1:-1]) * 0.25
    return out


class TestCallSiteWithoutEnclosingLoop:
    """Listing 1 has no time loop: the data-management calls anchor directly
    at the stencil call instead of an enclosing fir.do_loop."""

    @pytest.mark.parametrize("strategy", ["optimised", "host_register"])
    def test_data_calls_anchor_at_the_call(self, listing1_source, strategy):
        compiled = repro.Session().compile(listing1_source).lower(
            "gpu", data_strategy=strategy
        )
        func_op = next(
            op for op in compiled.fir_module.walk()
            if isinstance(op, FuncOp) and op.sym_name == "average"
        )
        top_level_calls = [
            op.callee for op in func_op.entry_block.ops
            if isinstance(op, fir.CallOp)
        ]
        stencil_name = compiled.extracted_functions[0]
        assert stencil_name in top_level_calls
        if strategy == "optimised":
            prefix = "_gpu_alloc_"
            assert any(c.startswith("_gpu_free_") for c in top_level_calls)
            # alloc before the stencil call, free after it.
            assert top_level_calls.index(f"_gpu_alloc_{stencil_name}") \
                < top_level_calls.index(stencil_name) \
                < top_level_calls.index(f"_gpu_free_{stencil_name}")
        else:
            prefix = "_gpu_register_"
            assert top_level_calls.index(f"_gpu_register_{stencil_name}") \
                < top_level_calls.index(stencil_name)
        assert any(c.startswith(prefix) for c in top_level_calls)

    def test_execution_matches_reference(self, listing1_source):
        compiled = repro.Session().compile(listing1_source).lower(
            "gpu", data_strategy="optimised"
        )
        rng = np.random.default_rng(5)
        data = np.asfortranarray(rng.random((16, 16)))
        reference = _average_reference(data)
        device = SimulatedGPU()
        compiled.run("average", data, gpu=device)
        assert np.allclose(data, reference)
        assert device.summary()["launches"] == 1


class TestMultipleCallSites:
    """Every call site of one stencil function must be rewritten to the
    device pointers returned by the single hoisted allocation call."""

    def _artifact_with_duplicated_call(self, n=8, niters=2):
        session = repro.Session()  # private session: the artifact is mutated
        compiled = session.compile(
            gauss_seidel.generate_source(n, niters=niters)
        ).lower("cpu")
        call = _stencil_calls(compiled.fir_module,
                              set(compiled.extracted_functions))[0]
        duplicate = call.clone({})
        call.parent_block().insert_op_after(duplicate, call)
        return compiled

    def test_all_sites_rewritten_to_device_pointers(self):
        compiled = self._artifact_with_duplicated_call()
        GpuOptimisedDataPass(stencil_module=compiled.stencil_module).apply(
            compiled.fir_module
        )
        compiled.fir_module.verify()
        calls = _stencil_calls(compiled.fir_module,
                               set(compiled.extracted_functions))
        assert len(calls) == 2
        alloc_call = next(
            op for op in compiled.fir_module.walk()
            if isinstance(op, fir.CallOp) and op.callee.startswith("_gpu_alloc_")
        )
        device_ptrs = set(map(id, alloc_call.results))
        for call in calls:
            assert id(call.operands[0]) in device_ptrs
        # One allocation, one free — not one per call site.
        data_calls = [op.callee for op in compiled.fir_module.walk()
                      if isinstance(op, fir.CallOp)
                      and op.callee.startswith(("_gpu_alloc_", "_gpu_free_"))]
        assert len(data_calls) == 2

    def test_duplicated_call_executes_two_sweeps_per_iteration(self):
        """Each call site of a lowered gpu artifact launches its kernel."""
        n, niters = 8, 2
        compiled = repro.Session().compile(
            gauss_seidel.generate_source(n, niters=niters)).lower("gpu")
        call = _stencil_calls(compiled.fir_module,
                              set(compiled.extracted_functions))[0]
        call.parent_block().insert_op_after(call.clone({}), call)
        init = gauss_seidel.initial_condition(n)
        work = init.copy(order="F")
        device = SimulatedGPU()
        interp = compiled.interpreter(gpu=device)
        interp.call("gauss_seidel", work)
        # Two call sites per time-loop iteration: 2 * niters Jacobi sweeps.
        assert np.allclose(work, gauss_seidel.reference_jacobi(init, 2 * niters))
        assert device.summary()["launches"] == 2 * niters


class TestTileAnnotations:
    """The paper's Listing 4 (32, 32, 1) sizes every launch: clipped to the
    kernel's domain, padded with 1s past its rank.  There is no tile option."""

    @staticmethod
    def _launch_shapes(compiled):
        return [(op.get_attr("block_size").as_tuple(),
                 op.get_attr("grid_size").as_tuple())
                for op in compiled.stencil_module.walk()
                if op.name == "gpu.launch_func"]

    def test_listing4_tiles_clip_to_each_kernel(self, small_gs_source,
                                                listing1_source):
        session = repro.Session()
        # (32, 32, 1) clipped to the 8x8x8 interior: one block per plane.
        rank3 = session.compile(small_gs_source).lower("gpu")
        assert self._launch_shapes(rank3) == [((8, 8, 1), (1, 1, 8))]
        # (32, 32, 1) clipped to the (14, 14) domain, padded with a 1.
        rank2 = session.compile(listing1_source).lower("gpu")
        assert self._launch_shapes(rank2) == [((14, 14, 1), (1, 1, 1))]

    def test_a_domain_wider_than_the_tile_is_a_grid_of_whole_tiles(self):
        wide = repro.Session().compile(
            gauss_seidel.generate_source(40, niters=1)).lower("gpu")
        # A 38^3 interior: ceil(38 / 32) = 2 blocks in x and y.
        assert self._launch_shapes(wide) == [((32, 32, 1), (2, 2, 38))]


class TestNoPlacementAttributes:
    """Launches run synchronously, so the passes tag nothing for a stream
    model: the printed IR of either strategy carries no stream assignment
    and no prefetch point."""

    @pytest.mark.parametrize("strategy", ["optimised", "host_register"])
    def test_printed_ir_has_no_stream_or_prefetch(self, small_gs_source,
                                                  strategy):
        compiled = repro.Session().compile(small_gs_source).lower(
            "gpu", data_strategy=strategy)
        text = (print_module(compiled.fir_module)
                + print_module(compiled.stencil_module))
        assert "gpu.launch_func" in text
        assert "gpu.stream" not in text
        assert "gpu.prefetch" not in text
