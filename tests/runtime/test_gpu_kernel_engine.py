"""Tests for the vectorized GPU launch engine.

Covers the contract areas of :mod:`repro.runtime.gpu_kernel_engine`:

* **whole-lattice compilation** — outlined ``gpu.func`` kernels compile to
  one NumPy sweep whose iteration domain is the ``grid × block`` lattice
  clipped by the per-thread bounds guards;
* **oracle equivalence** — vectorized launches agree *bitwise* with the
  per-thread scalar interpreter on the lowered benchmark, and crosscheck
  mode replays every launch through that oracle;
* **guards and fallbacks** — aliased launch arguments and unsupported bodies
  (a nested ``scf.if``) fall back to the scalar path, counted in the
  interpreter stats;
* **caching** — structurally identical kernels compile once, across sweeps
  and across interpreters sharing one :class:`KernelCompiler`;
* **the measured series** — the engine is >= 5x faster than the scalar
  launch path, and the harness's GPU series matches the NumPy reference.
"""

import time

import numpy as np
import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, memref, scf
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.harness import measured_gpu_scaling
from repro.ir import Builder, MemRefType, f64, i1, index
from repro.ir.attributes import StringAttr
from repro.runtime import (
    Interpreter,
    InterpreterError,
    KernelCompiler,
    SimulatedGPU,
    compile_gpu_func,
)
from repro.runtime.gpu_kernel_engine import KernelUnsupported
from repro.runtime.kernel_compiler import CompiledKernel
from repro.transforms import ConvertParallelLoopsToGpuPass, ParallelLoopTilingPass


# ---------------------------------------------------------------------------
# IR builder: an outlined 2-d shift kernel (dst[i,j] = 2 * src[i-1,j])
# ---------------------------------------------------------------------------


def build_launch_module(n=8, in_place=False, with_nested_if=False,
                        tile=(4, 4), literal=2.0, literal_in_prologue=False):
    """A module whose func 'shift' launches an outlined gpu.func computing
    ``dst[i, j] = src[i-1, j] * 2`` (``* literal``) over ``[1, n-1)²``; with
    ``literal_in_prologue`` the literal is defined before the bounds guard."""
    mtype = MemRefType((n, n), f64)
    fn = FuncOp.build("shift", [mtype, mtype], [])
    b = Builder.at_end(fn.entry_block)
    dst, src = fn.entry_block.args
    if in_place:
        src = dst
    low = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    high = b.insert(arith.ConstantOp.from_int(n - 1, index)).results[0]
    one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    parallel = b.insert(scf.ParallelOp([low, low], [high, high], [one, one]))
    body = Builder.at_end(parallel.body.block)
    i, j = parallel.body.block.args
    amount = body.insert(arith.ConstantOp.from_int(1, index)).results[0]
    shifted = body.insert(arith.SubiOp(i, amount)).results[0]
    load = body.insert(memref.LoadOp(src, [shifted, j])).results[0]
    two = body.insert(arith.ConstantOp.from_float(literal)).results[0]
    value = body.insert(arith.MulfOp(load, two)).results[0]
    body.insert(memref.StoreOp(value, dst, [i, j]))
    parallel.body.block.add_op(scf.YieldOp([]))
    b.insert(ReturnOp([]))

    module = ModuleOp([fn])
    ParallelLoopTilingPass(tile).apply(module)
    ConvertParallelLoopsToGpuPass().apply(module)
    module.verify()
    if literal_in_prologue:
        kernel = next(op for op in module.walk() if op.name == "gpu.func")
        constant = next(op for op in kernel.walk()
                        if op.name == "arith.constant" and op.results[0].type == f64)
        kernel.regions[0].block.insert_op_at(0, constant.detach())
        module.verify()
    if with_nested_if:
        kernel = next(op for op in module.walk() if op.name == "gpu.func")
        guarded = next(op for op in kernel.walk() if op.name == "scf.if")
        block = guarded.regions[0].block
        store = next(op for op in block.ops if op.name == "memref.store")
        true = arith.ConstantOp.from_int(1, i1)
        block.insert_op_before(true, store)
        block.insert_op_before(scf.IfOp(true.results[0]), store)
    return module


def run_shift(module, mode, n=8, threads=1, kernel_compiler=None):
    rng = np.random.default_rng(7)
    src = np.asfortranarray(rng.random((n, n)))
    dst = np.zeros((n, n), order="F")
    interp = Interpreter(module, gpu=SimulatedGPU(), execution_mode=mode,
                         kernel_compiler=kernel_compiler, threads=threads)
    interp.call("shift", dst, src)
    return dst, src, interp


# ---------------------------------------------------------------------------
# Compilation unit tests
# ---------------------------------------------------------------------------


class TestCompileGpuFunc:
    def test_compiles_to_clipped_lattice_sweep(self):
        module = build_launch_module(n=8, tile=(4, 4))
        func_op = next(op for op in module.walk() if op.name == "gpu.func")
        kernel = compile_gpu_func(func_op)
        assert isinstance(kernel, CompiledKernel)
        assert kernel.rank == 2
        # iv = lattice + 1, guard iv < 7  =>  lattice upper limit 6.
        assert kernel.upper_limits == (6, 6)
        # Lattice [0, grid*block) = [0, 8) clips to the guard bound 6.
        lowers, uppers = kernel.launch_domain((2, 2, 1), (4, 4, 1))
        assert lowers == [0, 0] and uppers == [6, 6]
        # The load is shifted by -1 relative to the store in lattice coords:
        # store at iv = lattice+1, load at iv-1 = lattice+0.
        assert kernel.stores[0][1] == ((0, 1), (1, 1))
        assert kernel.loads[0][1] == ((0, 0), (1, 1))

    def test_nested_if_body_is_unsupported(self):
        module = build_launch_module(with_nested_if=True)
        func_op = next(op for op in module.walk() if op.name == "gpu.func")
        with pytest.raises(KernelUnsupported):
            compile_gpu_func(func_op)

    def test_non_gpu_func_rejected(self):
        module = build_launch_module()
        fn = next(op for op in module.walk() if isinstance(op, FuncOp))
        with pytest.raises(KernelUnsupported):
            compile_gpu_func(fn)

    def test_outlined_pw_kernel_is_the_nest_kernel_it_was_outlined_from(self):
        """The launch kernel re-derived from the outlined, tiled ``gpu.func``
        of lowered PW advection is, statement for statement, the kernel of
        the ``scf.parallel`` before tiling and outlining: the same windows,
        the same NumPy calls in the same order into the same ``out=``
        buffers.  Only the names differ — a nest kernel's first externals
        are its loop bounds, and its induction values start at the loop's
        lower bound 1 where the thread lattice starts at 0."""
        import re

        from repro.frontend import compile_to_fir
        from repro.ir import PassManager
        from repro.runtime.kernel_compiler import compile_loop_nest
        from repro.transforms import FIR_STENCIL_PIPELINE, ConvertStencilToSCFPass

        def statements(kernel, lattice_shift):
            slots = {}

            def slot(match):
                return f"ext[{slots.setdefault(match.group(1), len(slots))}]"

            def bound(match):
                offset = int(match.group(3) or 0) + lattice_shift
                return f"{match.group(1)}[{match.group(2)}]{offset:+d}"

            return [re.sub(r"(lb|ub)\[(\d)\](?: \+ (-?\d+))?", bound,
                           re.sub(r"ext\[(\d+)\]", slot, line))
                    for line in kernel.source.splitlines()[1:]]

        source = pw_advection.generate_source(8)
        lowered = repro.Session().compile(source).lower("gpu")
        [func_op] = [op for op in lowered.stencil_module.walk()
                     if op.name == "gpu.func"]
        # The same stencil function, extracted and lowered by hand.
        extraction = PassManager().add_pipeline(FIR_STENCIL_PIPELINE)
        extraction.run(compile_to_fir(source))
        unlowered = extraction.passes[-1].extracted_module
        ConvertStencilToSCFPass(target="gpu").apply(unlowered)
        [nest] = [op for op in unlowered.walk() if op.name == "scf.parallel"]
        launch_kernel, nest_kernel = compile_gpu_func(func_op), compile_loop_nest(nest)
        assert statements(launch_kernel, 0) == statements(nest_kernel, 1)
        assert launch_kernel.parameters == nest_kernel.parameters == (0, 1, 2)
        assert len(launch_kernel.source.splitlines()) == 94  # 3 bind c0, c1, c2
        assert launch_kernel.source.count("np.") == 60   # and 27 windows
        assert len(launch_kernel.loads) == len(nest_kernel.loads) == 27
        assert launch_kernel.allocations == nest_kernel.allocations


# ---------------------------------------------------------------------------
# Oracle equivalence on the synthetic kernel
# ---------------------------------------------------------------------------


class TestLaunchExecution:
    def test_vectorized_matches_scalar_bitwise(self):
        module = build_launch_module()
        scalar_dst, _, _ = run_shift(module, "interpret")
        vector_dst, src, interp = run_shift(module, "vectorize")
        assert np.array_equal(scalar_dst, vector_dst)
        assert np.array_equal(vector_dst[1:7, 1:7], 2 * src[0:6, 1:7])
        assert interp.stats["gpu_launches_vectorized"] == 1
        assert interp.stats["gpu_launch_fallbacks"] == 0
        assert interp.stats["kernel_launches"] == 1

    def test_a_float_literal_before_the_guard_is_a_parameter(self):
        """The prologue folds index constants into the lattice; a float
        literal there is the body's parameter, not an int."""
        module = build_launch_module(literal=2.5, literal_in_prologue=True)
        scalar_dst, _, _ = run_shift(module, "interpret")
        vector_dst, src, interp = run_shift(module, "vectorize")
        assert vector_dst.tobytes() == scalar_dst.tobytes()
        assert np.array_equal(vector_dst[1:7, 1:7], 2.5 * src[0:6, 1:7])
        assert interp.stats["gpu_launches_vectorized"] == 1

    def test_crosscheck_replays_through_oracle(self):
        module = build_launch_module()
        dst, src, interp = run_shift(module, "crosscheck")
        assert np.array_equal(dst[1:7, 1:7], 2 * src[0:6, 1:7])
        assert interp.stats["gpu_launches_vectorized"] == 1

    def test_crosscheck_raises_on_divergence(self):
        module = build_launch_module()
        compiler = KernelCompiler(use_shared_cache=False)
        # Prime the cache, then corrupt the compiled kernel's function.
        _, _, interp = run_shift(module, "vectorize", kernel_compiler=compiler)
        kernel = next(k for k in compiler._structural.values()
                      if isinstance(k, CompiledKernel))

        def wrong(ext, lb, ub, chosen=None):
            ext[1].data[lb[0]:ub[0], lb[1]:ub[1]] += 1.0

        kernel.fn = wrong
        with pytest.raises(InterpreterError, match="diverged"):
            run_shift(module, "crosscheck", kernel_compiler=compiler)

    def test_aliased_arguments_fall_back_to_scalar(self):
        """dst aliasing src makes the sweep order-dependent: the runtime
        alias guard must reject vectorization, and the scalar fallback must
        reproduce the per-thread semantics exactly."""
        module = build_launch_module(in_place=True)
        rng = np.random.default_rng(3)
        init = np.asfortranarray(rng.random((8, 8)))

        results = {}
        for mode in ("interpret", "vectorize"):
            data = init.copy(order="F")
            unused = np.zeros((8, 8), order="F")
            interp = Interpreter(module, gpu=SimulatedGPU(),
                                 execution_mode=mode)
            interp.call("shift", data, unused)
            results[mode] = data
        assert np.array_equal(results["interpret"], results["vectorize"])
        assert interp.stats["gpu_launch_fallbacks"] == 1
        assert interp.stats["gpu_launches_vectorized"] == 0

    def test_alias_guard_judges_every_run_over_one_link_table(self):
        """Aliasing that only the arguments show: the launch binding is
        linked once, the guard still sees each run's own buffers."""
        from repro.runtime.interpreter import LinkTable

        table = LinkTable([build_launch_module()])
        init = np.asfortranarray(np.random.default_rng(4).random((8, 8)))
        seen = []
        for aliased in (False, True, False):
            results = {}
            for mode in ("interpret", "vectorize"):
                src = init.copy(order="F")
                dst = src if aliased else np.zeros((8, 8), order="F")
                interp = Interpreter(table, gpu=SimulatedGPU(),
                                     execution_mode=mode)
                interp.call("shift", dst, src)
                results[mode] = dst
            assert np.array_equal(results["interpret"], results["vectorize"])
            seen.append((interp.stats["gpu_launches_vectorized"],
                         interp.stats["gpu_launch_fallbacks"]))
        assert seen == [(1, 0), (0, 1), (1, 0)]
        assert len(table.bindings) == 1

    def test_unsupported_body_falls_back_to_scalar(self):
        module = build_launch_module(with_nested_if=True)
        dst, src, interp = run_shift(module, "vectorize")
        assert np.array_equal(dst[1:7, 1:7], 2 * src[0:6, 1:7])
        assert interp.stats["gpu_launch_fallbacks"] == 1
        (label, why), = interp.kernels.stats["reasons"].items()
        assert label.startswith("gpu.func:") and "@" in label
        assert why == "KernelUnsupported: operation 'scf.if' is not vectorizable"

    def test_two_gpu_funcs_of_one_name_are_a_link_error(self):
        first, second = build_launch_module(), build_launch_module()
        host = next(op for op in second.walk() if isinstance(op, FuncOp))
        host.attributes["sym_name"] = StringAttr("shift_again")
        kernel = next(op for op in first.walk() if op.name == "gpu.func")
        name = kernel.get_attr("sym_name").data
        with pytest.raises(InterpreterError,
                           match=f"symbol '{name}' is defined twice"):
            Interpreter([first, second], gpu=SimulatedGPU())
        Interpreter([first, first], gpu=SimulatedGPU())     # one op, twice

    def test_kernel_compiles_once_across_sweeps_and_interpreters(self):
        module = build_launch_module()
        compiler = KernelCompiler(use_shared_cache=False)
        _, _, interp = run_shift(module, "vectorize", kernel_compiler=compiler)
        assert compiler.stats["compiled"] == 1
        run_shift(module, "vectorize", kernel_compiler=compiler)
        # Second interpreter, same compiler: structural hit, no new compile.
        assert compiler.stats["compiled"] == 1
        assert compiler.stats["cache_hits"] >= 1

    def test_per_kernel_stats_recorded(self):
        module = build_launch_module()
        compiler = KernelCompiler(use_shared_cache=False)
        _, _, interp = run_shift(module, "vectorize", kernel_compiler=compiler)
        per_kernel = compiler.stats["per_kernel"]
        assert len(per_kernel) == 1
        (label, entry), = per_kernel.items()
        assert label.startswith("gpu.func:shift_kernel_0")
        assert entry["invocations"] == 1


# ---------------------------------------------------------------------------
# Lowered benchmarks through the fluent API
# ---------------------------------------------------------------------------


class TestLoweredBenchmarks:
    @pytest.mark.parametrize("strategy", ["optimised", "host_register"])
    def test_gauss_seidel_vectorized_matches_oracle_bitwise(self, strategy):
        n = 10
        compiled = repro.compile(
            gauss_seidel.generate_source(n, niters=2)
        ).lower("gpu", data_strategy=strategy, lower_to_scf=True)
        init = gauss_seidel.initial_condition(n)

        results = {}
        for mode in ("interpret", "vectorize", "crosscheck"):
            work = init.copy(order="F")
            interp = compiled.with_options(
                execution_mode=mode).interpreter(gpu=SimulatedGPU())
            interp.call("gauss_seidel", work)
            results[mode] = (work, interp)

        reference = gauss_seidel.reference_jacobi(init, 2)
        scalar, _ = results["interpret"]
        assert np.allclose(scalar, reference)
        for mode in ("vectorize", "crosscheck"):
            work, interp = results[mode]
            assert np.array_equal(work, scalar), mode
            assert interp.stats["gpu_launches_vectorized"] == 2
            assert interp.stats["gpu_launch_fallbacks"] == 0
            assert interp.stats["gpu_seconds"] > 0

    def test_pw_advection_vectorized_matches_reference(self):
        n = 12
        compiled = repro.compile(
            pw_advection.generate_source(n)
        ).lower("gpu", data_strategy="optimised", lower_to_scf=True,
                execution_mode="vectorize")
        fields = [f.copy(order="F") for f in pw_advection.initial_fields(n)]
        interp = compiled.run("pw_advection", *fields)
        rsu, rsv, rsw = pw_advection.reference(fields[0], fields[1], fields[2])
        assert np.allclose(fields[3], rsu)
        assert np.allclose(fields[4], rsv)
        assert np.allclose(fields[5], rsw)
        assert interp.stats["gpu_launches_vectorized"] >= 1
        assert interp.stats["gpu_launch_fallbacks"] == 0

    def test_launch_accounting_not_doubled_in_lowered_mode(self):
        """The extracted function carries gpu.launch *and* its body contains
        a gpu.launch_func: only the launch site may account."""
        n = 10
        compiled = repro.compile(
            gauss_seidel.generate_source(n, niters=2)
        ).lower("gpu", data_strategy="optimised", lower_to_scf=True)
        device = SimulatedGPU()
        interp = compiled.with_options(
            execution_mode="vectorize").interpreter(gpu=device)
        interp.call("gauss_seidel", gauss_seidel.initial_condition(n))
        assert device.summary()["launches"] == 2  # niters, not 2 * niters
        assert interp.stats["kernel_launches"] == 2
        # The optimised strategy stages data explicitly: the device-resident
        # launch must not fabricate on-demand PCIe traffic.
        assert device.transferred_bytes(reason="on_demand") == 0

    def test_empty_domain_launch_executes_nothing(self):
        """A launch whose guards reject every lattice point is a no-op."""
        module = build_launch_module(n=2)  # domain [1, 1): empty
        dst, _, interp = run_shift(module, "vectorize", n=2)
        assert np.all(dst == 0)

    def test_vectorized_engine_speedup_over_scalar_launch(self):
        """The whole-lattice GPU engine must beat the per-thread scalar path by
        >= 5x on the lowered (outlined) Gauss-Seidel kernel."""
        n = 16
        compiled = repro.compile(
            gauss_seidel.generate_source(n, niters=1)
        ).lower("gpu", data_strategy="optimised", lower_to_scf=True)
        init = gauss_seidel.initial_condition(n)

        def timed(mode):
            # One interpreter: the warm-up compiles + binds the kernels, so the
            # timed calls measure launch execution only.
            interp = compiled.with_options(
                execution_mode=mode).interpreter(gpu=SimulatedGPU())
            interp.call("gauss_seidel", init.copy(order="F"))
            best = float("inf")
            for _ in range(3):
                work = init.copy(order="F")
                start = time.perf_counter()
                interp.call("gauss_seidel", work)
                best = min(best, time.perf_counter() - start)
            return best, interp

        scalar_seconds, _ = timed("interpret")
        vector_seconds, interp = timed("vectorize")
        assert interp.stats["gpu_launches_vectorized"] == 4  # warm-up + 3 repeats
        assert interp.stats["gpu_launch_fallbacks"] == 0
        assert scalar_seconds >= 5 * vector_seconds, (
            f"vectorized GPU engine only {scalar_seconds / vector_seconds:.1f}x "
            f"faster than the per-thread scalar path"
        )

    def test_measured_gpu_series_validates_against_reference(self):
        """Both data strategies run for real through the vectorized engine; every
        row must sit < 1e-12 from the NumPy reference (the harness raises
        otherwise) and every launch must have gone through the engine."""
        result = measured_gpu_scaling()
        strategies = {row[0] for row in result.rows}
        assert strategies == {"optimised", "host_register"}
        for _, _, _, launches, vectorized, error in result.rows:
            assert error < 1e-12
            assert vectorized == launches
        # The optimised strategy moves each field across PCIe once; host_register
        # pages on demand at every launch.
        assert result.notes["optimised"]["on_demand_bytes"] == 0
        assert result.notes["host_register"]["on_demand_bytes"] > 0
