"""Tests for the runtime substrates: memory, interpreter, GPU."""

import inspect
import re

import numpy as np
import pytest

from repro.dialects import arith, func, memref, scf
from repro.dialects.builtin import ModuleOp
from repro.ir import Builder, MemRefType, f64, index
from repro.ir.attributes import StringAttr
from repro.runtime import (
    ElementRef,
    Interpreter,
    InterpreterError,
    MemoryBuffer,
    SimulatedGPU,
)


class TestMemoryModel:
    def test_scalar_cell(self):
        cell = MemoryBuffer.for_scalar(f64, 3.0)
        assert cell.load() == 3.0
        cell.store(4.5)
        assert cell.load() == 4.5

    def test_array_buffer_and_element_ref(self):
        buf = MemoryBuffer.for_array((3, 4), f64)
        ref = ElementRef(buf, (1, 2))
        ref.store(7.0)
        assert buf.data[1, 2] == 7.0
        assert ref.load() == 7.0

    def test_wrap_shares_memory(self):
        arr = np.zeros((2, 2), order="F")
        buf = MemoryBuffer.wrap(arr)
        buf.data[0, 0] = 1.0
        assert arr[0, 0] == 1.0

    def test_fortran_order_allocation(self):
        buf = MemoryBuffer.for_array((4, 5), f64)
        assert buf.data.flags["F_CONTIGUOUS"]

    def test_scalar_buffer_rejects_indexed_access(self):
        with pytest.raises(TypeError):
            MemoryBuffer.for_array((2,), f64).load()


class TestInterpreterCore:
    def _make_saxpy(self):
        f = func.FuncOp.build("saxpy", [f64, f64], [f64])
        b = Builder.at_end(f.entry_block)
        c = b.insert(arith.ConstantOp.from_float(2.0))
        m = b.insert(arith.MulfOp(c.result, f.entry_block.args[0]))
        a = b.insert(arith.AddfOp(m.result, f.entry_block.args[1]))
        b.insert(func.ReturnOp([a.result]))
        return ModuleOp([f])

    def test_function_call_returns_values(self):
        interp = Interpreter(self._make_saxpy())
        func_op = interp.lookup("saxpy")
        (result,) = interp.call_function(func_op, [np.float64(3.0), np.float64(1.0)])
        assert result == 7.0

    def test_unknown_function(self):
        interp = Interpreter(self._make_saxpy())
        with pytest.raises(InterpreterError):
            interp.lookup("nope")

    @pytest.mark.parametrize("threads", [0, -3, 2.7, "3", True])
    def test_a_thread_count_is_checked_not_coerced(self, threads):
        with pytest.raises(InterpreterError,
                           match=rf"threads must be an integer >= 1, got "
                                 rf"{re.escape(repr(threads))}$"):
            Interpreter(self._make_saxpy(), execution_mode="vectorize",
                        threads=threads)

    def test_two_definitions_of_one_symbol_are_a_link_error(self):
        """Not "last one wins": the error names the symbol and both modules."""
        first, second = self._make_saxpy(), self._make_saxpy()
        first.attributes["sym_name"] = StringAttr("fir_side")
        second.attributes["sym_name"] = StringAttr("stencil_side")
        with pytest.raises(InterpreterError) as failure:
            Interpreter([first, second])
        message = str(failure.value)
        assert "'saxpy'" in message and "defined twice" in message
        assert "'fir_side'" in message and "'stencil_side'" in message

    def test_one_op_linked_twice_and_a_declaration_beside_it_stay_legal(self):
        module = self._make_saxpy()
        declaring = ModuleOp([func.FuncOp.declaration("saxpy", [f64, f64], [f64])])
        for modules in ([module, module], [declaring, module], [module, declaring]):
            interp = Interpreter(modules)
            (result,) = interp.call_function(
                interp.lookup("saxpy"), [np.float64(3.0), np.float64(1.0)])
            assert result == 7.0

    def test_unknown_operation_rejected(self):
        from repro.ir import Operation

        f = func.FuncOp.build("f", [], [])
        bad = Operation()
        bad.name = "strange.op"
        f.entry_block.add_op(bad)
        f.entry_block.add_op(func.ReturnOp([]))
        interp = Interpreter(ModuleOp([f]))
        with pytest.raises(InterpreterError):
            interp.call("f")

    def test_call_writes_results_back_into_c_ordered_array(self):
        """A C-ordered argument runs as a Fortran-ordered copy; the kernel's
        writes must reach the caller's array, never be dropped."""
        import repro
        from repro.apps import gauss_seidel

        compiled = repro.compile(gauss_seidel.generate_source(8, niters=1)).lower("cpu")
        work = np.ascontiguousarray(gauss_seidel.initial_condition(8))
        assert not work.flags["F_CONTIGUOUS"]
        expected = gauss_seidel.reference_jacobi(work, 1)
        compiled.run("gauss_seidel", work)
        assert np.array_equal(work, expected)

    @pytest.mark.parametrize("path", ["interpret", "vectorize", "service"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_read_only_array_is_never_silently_left_unwritten(self, order, path):
        """A read-only array runs on a writable copy: a call that writes it
        is refused naming the position, never a NumPy error from inside a
        sweep and never a normal return with the results lost."""
        import repro
        from repro.apps import gauss_seidel
        from repro.serve import CompileService

        source = gauss_seidel.generate_source(8, niters=1)
        u = np.array(gauss_seidel.initial_condition(8), order=order)
        before = u.copy()
        u.setflags(write=False)
        with pytest.raises(InterpreterError, match="argument 0, a read-only array"):
            if path == "service":
                with CompileService(workers=1) as service:
                    service.run(source, "gauss_seidel", [u], backend="cpu",
                                execution_mode="vectorize")
            else:
                repro.compile(source).lower("cpu", execution_mode=path).run(
                    "gauss_seidel", u)
        assert u.tobytes() == before.tobytes()

    @pytest.mark.parametrize("mode", ["interpret", "vectorize"])
    def test_a_read_only_array_the_call_only_reads_is_accepted(self, mode):
        import repro
        from repro.apps import pw_advection

        n = 8
        fields = [f.copy(order="F") for f in pw_advection.initial_fields(n)]
        for field in fields[:3]:
            field.setflags(write=False)
        repro.compile(pw_advection.generate_source(n)).lower(
            "cpu", execution_mode=mode).run("pw_advection", *fields)
        for got, want in zip(fields[3:], pw_advection.reference(*fields[:3])):
            assert np.allclose(got, want)

    def test_call_rejects_surplus_arguments(self):
        interp = Interpreter(self._make_saxpy())
        with pytest.raises(InterpreterError, match="expects 2 arguments, got 3"):
            interp.call("saxpy", 1.0, 2.0, 3.0)

    @pytest.mark.parametrize("mode", ["interpret", "vectorize"])
    @pytest.mark.parametrize("array,received", [
        (np.zeros((8, 8, 8), dtype=np.float32, order="F"), "dtype float32"),
        (np.zeros((10, 10, 10), order="F"), "shape (10, 10, 10)"),
        (np.zeros((6, 6, 6), order="F"), "shape (6, 6, 6)"),
        (np.zeros((8, 8), order="F"), "shape (8, 8)"),
    ], ids=["dtype", "larger", "smaller", "rank"])
    def test_call_holds_arrays_to_the_declared_fir_type(self, array, received,
                                                        mode):
        """Wrong dtype, extent or rank is refused at the boundary with the
        declared type — never computed on, never a NumPy error from inside a
        kernel."""
        import repro
        from repro.apps import gauss_seidel

        compiled = repro.compile(gauss_seidel.generate_source(8, niters=1)).lower("cpu")
        with pytest.raises(InterpreterError) as error:
            compiled.with_options(execution_mode=mode).run("gauss_seidel", array)
        message = str(error.value)
        assert "arg0" in message and "!fir.array<8x8x8xf64>" in message
        assert received in message
        assert not array.any()

    def test_dynamic_extents_match_any_size(self):
        from repro.dialects import fir
        from repro.ir.types import DYNAMIC

        f = func.FuncOp.build(
            "f", [fir.ReferenceType(fir.SequenceType([DYNAMIC, 5], f64))], [])
        f.entry_block.add_op(func.ReturnOp([]))
        interp = Interpreter(ModuleOp([f]))
        interp.call("f", np.zeros((3, 5), order="F"))
        interp.call("f", np.zeros((9, 5), order="F"))
        with pytest.raises(InterpreterError, match=r"!fir.array<\?x5xf64>"):
            interp.call("f", np.zeros((3, 4), order="F"))

    @pytest.mark.parametrize("path", ["flang-only", "cpu-vectorize", "service"])
    def test_an_array_for_a_scalar_or_a_scalar_for_an_array_is_refused(self, path):
        """Both wrong kinds fail at the boundary naming the position and the
        declared type, not with a TypeError from inside the run."""
        import repro
        from repro.serve import CompileService

        source = """
subroutine scale(a, s)
  implicit none
  real(kind=8), intent(inout) :: a(8)
  real(kind=8), intent(in) :: s
  integer :: i
  do i = 1, 8
    a(i) = a(i) * s
  end do
end subroutine scale
"""
        backend, mode = ("flang-only", "interpret") if path == "flang-only" \
            else ("cpu", "vectorize")
        array = np.ones(8)
        for args, position, declared in (((array, array.copy()), "arg1", "f64"),
                                         ((2.0, 2.0), "arg0", "!fir.array<8xf64>"),
                                         ((np.int64(2), 2.0), "arg0", "!fir.array<8xf64>")):
            with pytest.raises(InterpreterError) as error:
                if path == "service":
                    with CompileService(repro.Session(), workers=1) as service:
                        service.run(source, "scale", args, execution_mode=mode)
                else:
                    repro.compile(source).lower(backend, execution_mode=mode).run(
                        "scale", *args)
            message = str(error.value)
            assert f"argument {position} is declared {declared}," in message
        assert np.array_equal(array, np.ones(8))

    def test_scf_for_with_iter_args(self):
        # sum of 0..9 using loop-carried values
        f = func.FuncOp.build("sum10", [], [index])
        b = Builder.at_end(f.entry_block)
        zero = b.insert(arith.ConstantOp.from_int(0, index)).result
        ten = b.insert(arith.ConstantOp.from_int(10, index)).result
        one = b.insert(arith.ConstantOp.from_int(1, index)).result
        loop = b.insert(scf.ForOp(zero, ten, one, iter_args=[zero]))
        lb = Builder.at_end(loop.body.block)
        acc = loop.body.block.args[1]
        new = lb.insert(arith.AddiOp(acc, loop.induction_variable))
        lb.insert(scf.YieldOp([new.result]))
        b.insert(func.ReturnOp([loop.results[0]]))
        (total,) = Interpreter(ModuleOp([f])).call("sum10")
        assert int(total) == 45

    def test_scf_parallel_touches_all_points(self):
        f = func.FuncOp.build("fill", [MemRefType([4, 4], f64)], [])
        b = Builder.at_end(f.entry_block)
        zero = b.insert(arith.ConstantOp.from_int(0, index)).result
        four = b.insert(arith.ConstantOp.from_int(4, index)).result
        one = b.insert(arith.ConstantOp.from_int(1, index)).result
        val = b.insert(arith.ConstantOp.from_float(1.0)).result
        par = b.insert(scf.ParallelOp([zero, zero], [four, four], [one, one]))
        pb = Builder.at_end(par.body.block)
        pb.insert(memref.StoreOp(val, f.entry_block.args[0], list(par.body.block.args)))
        pb.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        data = np.zeros((4, 4), order="F")
        interp = Interpreter(ModuleOp([f]))
        interp.call("fill", data)
        assert np.all(data == 1.0)
        assert interp.stats["parallel_regions"] == 1

    @pytest.mark.parametrize("op_cls,a,b,expected", [
        (arith.AddfOp, 1.5, 2.0, 3.5),
        (arith.SubfOp, 1.5, 2.0, -0.5),
        (arith.MulfOp, 1.5, 2.0, 3.0),
        (arith.DivfOp, 3.0, 2.0, 1.5),
        (arith.MaximumfOp, 3.0, 2.0, 3.0),
        (arith.MinimumfOp, 3.0, 2.0, 2.0),
    ])
    def test_float_binary_semantics(self, op_cls, a, b, expected):
        f = func.FuncOp.build("binop", [f64, f64], [f64])
        bd = Builder.at_end(f.entry_block)
        r = bd.insert(op_cls(f.entry_block.args[0], f.entry_block.args[1]))
        bd.insert(func.ReturnOp([r.result]))
        interp = Interpreter(ModuleOp([f]))
        (out,) = interp.call_function(interp.lookup("binop"),
                                      [np.float64(a), np.float64(b)])
        assert np.isclose(out, expected)


@pytest.fixture(scope="class")
def always_copied_pw():
    """``(u, sv, sw)`` of PW n=9 with ``su`` aliasing ``u``, interpreted on
    cpu with every field counted as written, so each snapshot copies."""
    import repro
    from repro.apps import pw_advection
    from repro.dialects import stencil

    u, v, w = (f.copy(order="F") for f in pw_advection.initial_fields(9)[:3])
    sv, sw = np.zeros_like(u), np.zeros_like(u)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(stencil.ExternalLoadOp, "read_only",
                        property(lambda self: False))
        copying = repro.Session().lower(
            pw_advection.generate_source(9), "cpu", execution_mode="interpret").run(
                "pw_advection", u, v, w, u, sv, sw)
    assert copying.stats["snapshots_copied"] == 3
    return u, sv, sw


class TestSnapshotSemantics:
    """A ``memref.snapshot`` aliases its source unless a buffer the function
    writes may share its memory at run time; stencil snapshot semantics must
    survive either way."""

    def test_time_loop_storing_into_the_snapshotted_field(self):
        """Gauss-Seidel: snapshot -> nest storing into the *same* field,
        three times over; the oracle copies, a vectorized sweep swaps."""
        import repro
        from repro.apps import gauss_seidel

        compiled = repro.compile(gauss_seidel.generate_source(12, niters=3)).lower("cpu")
        start = gauss_seidel.initial_condition(12)
        runs = {}
        for mode, kept in (("vectorize", "snapshots_swapped"),
                           ("interpret", "snapshots_copied")):
            runs[mode] = start.copy(order="F")
            interp = compiled.with_options(
                execution_mode=mode).run("gauss_seidel", runs[mode])
            assert interp.stats[kept] == 3
        assert runs["vectorize"].tobytes() == runs["interpret"].tobytes() \
            == gauss_seidel.reference_jacobi(start, 3).tobytes()

    @pytest.mark.parametrize("mode", ["vectorize", "crosscheck", "interpret"])
    @pytest.mark.parametrize("backend, options", [
        ("cpu", {}),
        ("openmp", {"threads": 2}),
        ("gpu", {"data_strategy": "host_register"}),
        ("gpu", {"data_strategy": "optimised"}),
    ], ids=["cpu", "openmp-2t", "gpu-host-register", "gpu-optimised"])
    def test_one_array_as_input_and_output_and_inputs_left_untouched(
            self, backend, options, mode, always_copied_pw):
        """PW advection with ``su`` aliasing ``u``: the snapshot of ``u`` is
        taken at run time because the nest stores while it reads, and keeps
        the always-copy answer.  With distinct arrays nothing is copied, the
        inputs come back byte-identical and only the written fields cross
        back from the device."""
        import repro
        from repro.apps import pw_advection

        compiled = repro.Session().compile(
            pw_advection.generate_source(9)).lower(backend, **options)
        u, v, w, su, sv, sw = (f.copy(order="F")
                               for f in pw_advection.initial_fields(9))
        before = [a.copy() for a in (u, v, w)]
        interp = compiled.with_options(
            execution_mode=mode).run("pw_advection", u, v, w, su, sv, sw)
        assert interp.stats["snapshots_copied"] == 0
        assert interp.stats["snapshots_elided"] == 3
        assert all(a.tobytes() == b.tobytes() for a, b in zip((u, v, w), before))
        if backend == "gpu":
            # Copied back: the written fields, when they live on the device.
            # Paged on demand: all six, both ways, when they live on the host.
            optimised = options["data_strategy"] == "optimised"
            assert interp.gpu.transferred_bytes("d2h", "memcpy") == \
                (su.nbytes + sv.nbytes + sw.nbytes if optimised else 0)
            assert interp.gpu.transferred_bytes(reason="on_demand") == \
                (0 if optimised else 12 * u.nbytes)
            assert interp.gpu.allocated_bytes == 0

        aliased = u.copy(order="F")
        sv2, sw2 = np.zeros_like(sv), np.zeros_like(sw)
        interp = compiled.with_options(
            execution_mode=mode).run("pw_advection", aliased, v, w, aliased, sv2, sw2)
        # Device buffers of one host array are distinct; host ones are not.
        on_host = options.get("data_strategy") != "optimised"
        assert interp.stats["snapshots_copied"] == (1 if on_host else 0)
        if backend == "gpu":
            assert interp.gpu.allocated_bytes == 0   # the scratch copy too
        for got, want in zip((aliased, sv2, sw2), always_copied_pw):
            assert got.tobytes() == want.tobytes()
        assert aliased[1:-1, 1:-1, 1:-1].tobytes() == su[1:-1, 1:-1, 1:-1].tobytes()


class TestSimulatedGPU:
    def test_alloc_and_oom(self):
        gpu = SimulatedGPU(memory_bytes=1024)
        gpu.alloc((8,), f64)
        with pytest.raises(MemoryError):
            gpu.alloc((200,), f64)

    def test_memcpy_direction_accounting(self):
        gpu = SimulatedGPU()
        host = MemoryBuffer.for_array((16,), f64, space="host")
        host.data[:] = 3.0
        device = gpu.alloc((16,), f64)
        gpu.memcpy(device, host)
        assert np.all(device.data == 3.0)
        assert gpu.transferred_bytes("h2d") == 128
        gpu.memcpy(host, device)
        assert gpu.transferred_bytes("d2h") == 128

    def test_launch_on_host_buffer_records_on_demand_traffic(self):
        gpu = SimulatedGPU()
        host = MemoryBuffer.for_array((32,), f64, space="host")
        gpu.record_launch("k", [host], 0.0)
        assert gpu.transferred_bytes(reason="on_demand") == 2 * 256
        assert gpu.transferred_bytes("h2d", "on_demand") == 256
        assert gpu.transferred_bytes("d2h", "on_demand") == 256
        assert gpu.transferred_bytes(reason="memcpy") == 0

    def test_launch_on_device_buffer_is_free_of_pcie(self):
        gpu = SimulatedGPU()
        device = gpu.alloc((32,), f64)
        gpu.record_launch("k", [device], 0.0)
        assert gpu.transferred_bytes(reason="on_demand") == 0

    def test_dealloc_returns_bytes_to_the_pool(self):
        """Regression: alloc -> dealloc -> alloc of the full device memory
        must succeed, because dealloc returns the bytes to the pool."""
        gpu = SimulatedGPU(memory_bytes=1024)
        full = gpu.alloc((128,), f64)  # 1024 bytes: the whole device
        assert gpu.allocated_bytes == 1024
        assert gpu.dealloc(full) == 1024
        assert gpu.allocated_bytes == 0
        again = gpu.alloc((128,), f64)  # must not raise
        assert gpu.allocated_bytes == 1024
        assert gpu.pool.peak_bytes == 1024
        assert gpu.dealloc(again) == 1024
        # Releasing a buffer the pool does not own reclaims nothing.
        assert gpu.dealloc(again) == 0
        assert gpu.allocated_bytes == 0

    def test_oom_message_names_buffer_and_breakdown(self):
        gpu = SimulatedGPU(memory_bytes=1024)
        gpu.alloc((64,), f64, label="u_dev")
        with pytest.raises(MemoryError) as excinfo:
            gpu.alloc((100,), f64, label="v_dev")
        message = str(excinfo.value)
        assert "'v_dev'" in message           # the requested buffer by name
        assert "800 bytes" in message         # and its size
        assert "u_dev=512" in message         # per-allocation breakdown

    def test_summary_reports_per_kernel_invocations_and_wall_time(self):
        gpu = SimulatedGPU()
        device = gpu.alloc((32,), f64)
        gpu.record_launch("k1", [device], 0.25)
        gpu.record_launch("k1", [device], 0.0)
        gpu.record_launch("k2", [device], 0.5)
        summary = gpu.summary()
        assert summary["launches"] == 3
        assert summary["kernel_invocations"] == {"k1": 2, "k2": 1}
        assert summary["launch_seconds"] == pytest.approx(0.75)
        assert gpu.stats["per_kernel"]["k1"]["seconds"] == pytest.approx(0.25)
        # The device reports what it accounted, nothing modelled.
        assert set(summary) == {
            "launches", "h2d_bytes", "d2h_bytes", "on_demand_bytes",
            "allocated_bytes", "peak_allocated_bytes", "launch_seconds",
            "kernel_invocations", "degradation"}
        assert list(inspect.signature(SimulatedGPU).parameters) == [
            "memory_bytes"]

    def test_kernel_stats_table_renders_device_stats(self):
        from repro.harness import kernel_stats_table

        gpu = SimulatedGPU()
        device = gpu.alloc((32,), f64)
        gpu.record_launch("k1", [device], 0.5)
        table = kernel_stats_table(gpu)
        assert "k1" in table and "0.500" in table
