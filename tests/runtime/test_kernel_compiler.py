"""Tests for the vectorized kernel compilation backend.

Covers the three contract areas of ``repro.runtime.kernel_compiler``:

* **slice translation** — loop nests and apply bodies compile to NumPy
  whole-array slice expressions (inspectable through ``kernel.source``);
* **kernel caching** — repeated sweeps hit the identity memo and structurally
  identical ops from separate compilations share one kernel;
* **oracle equivalence** — for both paper benchmarks the vectorized results
  match the scalar interpreter bit-for-bit-close, in every lowering, and the
  guards send non-vectorizable nests (in-place updates, unsupported ops) back
  to the scalar path instead of silently corrupting results — and the
  vectorized sweep is held to >= 10x faster than the scalar one.
"""

import re
import time

import numpy as np
import pytest

import repro
from repro.api import CpuOptions, OptionError
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, memref, scf, stencil
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.ir import Builder, MemRefType, f32, f64, i64, index
from repro.runtime import (Frame, Interpreter, InterpreterError, MemoryBuffer,
                           SimulatedGPU, TempValue)
from repro.runtime.kernel_compiler import (
    KernelCompiler,
    KernelUnsupported,
    compile_apply,
    compile_loop_nest,
    structural_hash,
)


# ---------------------------------------------------------------------------
# IR builders used by the unit-level tests
# ---------------------------------------------------------------------------


def build_shift_nest_module(n=8, shift=-1, in_place=False, row_range_args=False,
                            literal=2.0, literal_type=f64, combine=arith.MulfOp):
    """func(dst, src): scf.parallel nest computing dst[i,j] = src[i+shift,j]*2
    over [1, n-1)²; with ``in_place`` the source is the destination memref,
    with ``row_range_args`` the rows are ``range(low, high, step)`` of three
    more (index) arguments.  ``literal``, ``literal_type`` and ``combine``
    replace the 2.0, its f64 and the multiply."""
    mtype = MemRefType((n, n), f64)
    fn = FuncOp.build("shift", [mtype, mtype] + [index] * 3 * row_range_args, [])
    b = Builder.at_end(fn.entry_block)
    dst, src = fn.entry_block.args[:2]
    if in_place:
        src = dst
    low = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    high = b.insert(arith.ConstantOp.from_int(n - 1, index)).results[0]
    one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    rows = fn.entry_block.args[2:] if row_range_args else (low, high, one)
    parallel = b.insert(scf.ParallelOp([rows[0], low], [rows[1], high],
                                       [rows[2], one]))
    body = Builder.at_end(parallel.body.block)
    i, j = parallel.body.block.args
    amount = body.insert(arith.ConstantOp.from_int(abs(shift), index)).results[0]
    shifted = body.insert(
        (arith.AddiOp if shift >= 0 else arith.SubiOp)(i, amount)
    ).results[0]
    load = body.insert(memref.LoadOp(src, [shifted, j])).results[0]
    two = body.insert(arith.ConstantOp.from_float(literal, literal_type)).results[0]
    value = body.insert(combine(load, two)).results[0]
    body.insert(memref.StoreOp(value, dst, [i, j]))
    parallel.body.block.add_op(scf.YieldOp([]))
    b.insert(ReturnOp([]))
    return ModuleOp([fn]), fn


def build_average_apply(n=8, element=f64, half=0.5):
    """A standalone stencil.apply averaging left/right neighbours of its one
    temp operand (fed by a detached cast so the operand list is populated);
    ``element`` and ``half`` replace its f64 and the 0.5 it scales by."""
    from repro.dialects.builtin import UnrealizedConversionCastOp

    temp_type = stencil.TempType([[0, n], [0, n]], element)
    producer = UnrealizedConversionCastOp([], [temp_type])
    apply_op = stencil.ApplyOp(
        [producer.results[0]], [1, 1], [n - 1, n - 1],
        [stencil.TempType([[1, n - 1], [1, n - 1]], element)],
    )
    block = apply_op.body.block
    arg = block.args[0]
    b = Builder.at_end(block)
    left = b.insert(stencil.AccessOp(arg, [-1, 0])).results[0]
    right = b.insert(stencil.AccessOp(arg, [1, 0])).results[0]
    total = b.insert(arith.AddfOp(left, right)).results[0]
    half = b.insert(arith.ConstantOp.from_float(half, element)).results[0]
    value = b.insert(arith.MulfOp(total, half)).results[0]
    b.insert(stencil.ReturnOp([value]))
    return apply_op


# ---------------------------------------------------------------------------
# Slice translation
# ---------------------------------------------------------------------------


class TestSliceTranslation:
    def test_nest_compiles_to_slices(self):
        _, fn = build_shift_nest_module()
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        kernel = compile_loop_nest(parallel)
        # The load is shifted by -1 along dim 0 and unshifted along dim 1.
        assert "lb[0] + -1:ub[0] + -1" in kernel.source
        assert "lb[1]:ub[1]" in kernel.source
        assert kernel.rank == 2
        assert len(kernel.loads) == 1 and len(kernel.stores) == 1
        assert kernel.loads[0][1] == ((0, -1), (1, 0))
        assert kernel.stores[0][1] == ((0, 0), (1, 0))

    def test_nest_kernel_executes_correct_slices(self):
        _, fn = build_shift_nest_module(n=6)
        module = ModuleOp([])  # the fn stays in its own module
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        kernel = compile_loop_nest(parallel)
        rng = np.random.default_rng(0)
        src = MemoryBuffer.wrap(np.asfortranarray(rng.random((6, 6))))
        dst = MemoryBuffer.wrap(np.zeros((6, 6), order="F"))
        # external layout: bounds first (low, high, one), then buffers
        externals = [None] * len(kernel.external_paths)
        for (ls, us, ss), (lo, hi, st) in zip(kernel.bound_slots, [(1, 5, 1)] * 2):
            externals[ls], externals[us], externals[ss] = lo, hi, st
        load_slot = kernel.loads[0][0]
        store_slot = kernel.stores[0][0]
        externals[load_slot] = src
        externals[store_slot] = dst
        externals.append(2.0)  # parameter c0, the body's float literal
        assert kernel.guards_pass(externals, [1, 1], [5, 5], [1, 1])
        kernel.fn(externals, [1, 1], [5, 5])
        assert np.allclose(dst.data[1:5, 1:5], src.data[0:4, 1:5] * 2.0)
        assert np.all(dst.data[0, :] == 0.0)

    def test_apply_compiles_to_slices(self):
        apply_op = build_average_apply()
        kernel = compile_apply(apply_op)
        assert "arr0" in kernel.source and "org0" in kernel.source
        assert "+ -1 - org0[0]" in kernel.source
        assert "return [" in kernel.source
        assert kernel.loads == ((0, ((0, -1), (1, 0))), (0, ((0, 1), (1, 0))))

    def test_unsupported_op_raises(self):
        _, fn = build_shift_nest_module()
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        # Smuggle an unsupported op (scf.if) into the innermost body.
        body = parallel.body.block
        cond = arith.ConstantOp.from_int(1, index)
        body.insert_op_at(0, cond)
        body.insert_op_at(1, scf.IfOp(cond.results[0]))
        with pytest.raises(KernelUnsupported):
            compile_loop_nest(parallel)


# ---------------------------------------------------------------------------
# Shared windows and the last-use pass (dead-buffer reuse through ``out=``)
# ---------------------------------------------------------------------------

_FLOAT_UFUNC = re.compile(r"np\.(add|subtract|multiply|divide|negative|maximum|"
                          r"minimum|power|sqrt|abs|sin|cos|tan|tanh|exp|log|"
                          r"log10)\(")


def bindings(source):
    """``{variable: right-hand side}`` of every assignment in a kernel."""
    return dict(re.findall(r"^\s+(\w+) = (.*)$", source, re.M))


def out_targets(source):
    return re.findall(r"out=(\w+)", source)


def assert_out_targets_are_dead_owned_buffers(source):
    """Every ``out=`` names the result of a float ufunc — never a view, a
    scalar, an arange, a where/astype result or a returned value — and is
    not read again after being overwritten."""
    bound = bindings(source)
    returned = re.search(r"return \[(.*)\]", source)
    returned = re.findall(r"\w+", returned.group(1)) if returned else []
    lines = source.splitlines()
    for number, line in enumerate(lines):
        for target in re.findall(r"out=(\w+)", line):
            assert _FLOAT_UFUNC.match(bound[target]), (target, bound[target])
            assert target not in returned
            later = "\n".join(lines[number + 1:])
            assert not re.search(rf"\b{target}\b", later), \
                f"{target} named again after line {number} overwrote it"


def build_mixed_apply(n):
    """One apply body with everything the reuse pass must leave alone: a
    ``stencil.index`` cast to a number (arange), ``cmpf`` + ``select`` (bool
    and ``np.where`` results), a scalar defined outside the body and a
    multiply-add, with ``fused`` read again after the select consumed it."""
    scale = arith.ConstantOp.from_float(3.0).results[0]
    apply_op = build_average_apply(n)
    body = apply_op.body.block
    for op in reversed(list(body.ops)):
        op.erase()
    b = Builder.at_end(body)
    arg = body.args[0]
    left = b.insert(stencil.AccessOp(arg, [-1, 0])).results[0]
    right = b.insert(stencil.AccessOp(arg, [1, 0])).results[0]
    row = b.insert(stencil.IndexOp(0)).results[0]
    row = b.insert(arith.IndexCastOp(row, i64)).results[0]
    row = b.insert(arith.SIToFPOp(row, f64)).results[0]
    product = b.insert(arith.MulfOp(left, scale)).results[0]
    fused = b.insert(arith.AddfOp(product, right)).results[0]
    below = b.insert(arith.CmpfOp("olt", fused, row)).results[0]
    chosen = b.insert(arith.SelectOp(below, fused, row)).results[0]
    total = b.insert(arith.AddfOp(chosen, fused)).results[0]
    b.insert(stencil.ReturnOp([total]))
    return apply_op, scale


def build_broadcast_nest_module(n):
    """func(dst, src, row): dst[i,j] = src[i,j]*3 + row[j] + row[j]*3 —
    ``row[j]`` is a missing-dim (broadcasting) load and ``3`` a scalar
    defined outside the nest."""
    fn = FuncOp.build("mixed", [MemRefType((n, n), f64), MemRefType((n, n), f64),
                                MemRefType((n,), f64)], [])
    b = Builder.at_end(fn.entry_block)
    dst, src, row = fn.entry_block.args
    low = b.insert(arith.ConstantOp.from_int(0, index)).results[0]
    high = b.insert(arith.ConstantOp.from_int(n, index)).results[0]
    one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
    three = b.insert(arith.ConstantOp.from_float(3.0)).results[0]
    parallel = b.insert(scf.ParallelOp([low, low], [high, high], [one, one]))
    body = Builder.at_end(parallel.body.block)
    i, j = parallel.body.block.args
    centre = body.insert(memref.LoadOp(src, [i, j])).results[0]
    edge = body.insert(memref.LoadOp(row, [j])).results[0]
    product = body.insert(arith.MulfOp(centre, three)).results[0]
    fused = body.insert(arith.AddfOp(product, edge)).results[0]
    scaled = body.insert(arith.MulfOp(edge, three)).results[0]
    total = body.insert(arith.AddfOp(fused, scaled)).results[0]
    body.insert(memref.StoreOp(total, dst, [i, j]))
    parallel.body.block.add_op(scf.YieldOp([]))
    b.insert(ReturnOp([]))
    return ModuleOp([fn]), fn, parallel


class TestWindowSharingAndBufferReuse:
    def test_fused_pw_binds_each_window_once_and_allocates_o1(self):
        """60 element-wise ops over 54 accesses of 27 distinct windows: the
        kernel slices 27 views and allocates a handful of arrays."""
        result = repro.Session().compile(
            pw_advection.generate_source(10)).lower("cpu")
        [apply_op] = [op for op in result.stencil_module.walk()
                      if isinstance(op, stencil.ApplyOp)]
        kernel = compile_apply(apply_op)
        rhs = bindings(kernel.source).values()
        assert sum(code.startswith("arr") for code in rhs) == 27
        assert len(kernel.loads) == 27
        ufuncs = [code for code in rhs if code.startswith("np.")]
        allocating = [code for code in ufuncs if "out=" not in code]
        assert len(ufuncs) == 60
        assert len(allocating) == kernel.allocations <= 8
        assert len(out_targets(kernel.source)) == 60 - kernel.allocations
        assert_out_targets_are_dead_owned_buffers(kernel.source)

    def test_mixed_apply_matches_the_oracle_and_spares_non_buffers(self):
        n = 9
        apply_op, scale = build_mixed_apply(n)
        data = np.asfortranarray(np.random.default_rng(21).random((n, n)) * n)

        def run(mode):
            interp = Interpreter([ModuleOp([])], execution_mode=mode,
                                 kernel_compiler=KernelCompiler(use_shared_cache=False))
            frame = Frame()
            frame.set(apply_op.operands[0], TempValue(data, (0, 0)))
            frame.set(scale, np.float64(3.0))
            values = interp.exec_op(apply_op, frame)
            return [value.data for value in values], interp

        oracle, _ = run("interpret")
        checked, interp = run("crosscheck")
        assert interp.stats["vectorized_sweeps"] == 1
        for ref, vec in zip(oracle, checked):
            assert np.asarray(ref).tobytes() == np.asarray(vec).tobytes()
        source = interp.kernels.kernel_for(apply_op).kernel.source
        assert "np.where" in source and "np.arange" in source
        assert_out_targets_are_dead_owned_buffers(source)
        # The add lands in the product's buffer, which dies with it;
        # the bool mask and the where result die by ``del``, not by reuse.
        product = next(var for var, code in bindings(source).items()
                       if code.startswith("np.multiply("))
        assert f"out={product})" in source
        assert source.count("del ") == 2

    def test_broadcasting_load_is_never_an_out_target(self):
        n = 7
        module, fn, parallel = build_broadcast_nest_module(n)
        rng = np.random.default_rng(22)
        src = np.asfortranarray(rng.random((n, n)))
        row = rng.random(n)

        def run(mode):
            dst = np.zeros((n, n), order="F")
            interp = Interpreter([module], execution_mode=mode)
            interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src),
                                      MemoryBuffer.wrap(row.copy())])
            return dst, interp

        oracle, _ = run("interpret")
        checked, interp = run("crosscheck")
        assert interp.stats["vectorized_sweeps"] == 1
        assert checked.tobytes() == oracle.tobytes()
        source = compile_loop_nest(parallel).source
        bound = bindings(source)
        edge = next(var for var, code in bound.items() if "expand_dims" in code)
        scaled = next(var for var, code in bound.items()
                      if code.startswith(f"np.multiply({edge}, "))
        assert "out=" not in bound[scaled]          # (1, n): not the full box
        assert scaled not in out_targets(source)
        assert f"del {scaled}" in source
        assert_out_targets_are_dead_owned_buffers(source)

    def test_value_used_again_after_an_intermediate_op_is_not_clobbered(self):
        """x = l + r; y = x * x; z = y - x: ``x`` outlives ``y``'s statement,
        so ``y`` may not be computed into it."""
        n = 8
        apply_op = build_average_apply(n)
        body = apply_op.body.block
        ret = body.last_op
        total = body.ops[2].results[0]              # left + right
        ret.erase(safe=False)
        b = Builder.at_end(body)
        squared = b.insert(arith.MulfOp(total, total)).results[0]
        b.insert(stencil.ReturnOp([b.insert(arith.SubfOp(squared, total)).results[0]]))
        kernel = compile_apply(apply_op)
        data = np.asfortranarray(np.random.default_rng(23).random((n, n)))
        [got] = kernel.fn([TempValue(data, (0, 0)), 0.5], (1, 1), (n - 1, n - 1))
        x = data[0:n - 2, 1:n - 1] + data[2:n, 1:n - 1]
        assert got.tobytes() == (x * x - x).tobytes()
        assert_out_targets_are_dead_owned_buffers(kernel.source)

    def test_two_stores_through_one_buffer_keep_the_last(self):
        """dst[i,j] = src*2 then dst[i,j] = src*2 + 1: the first value dies at
        its store and its buffer carries the second."""
        n = 6
        module, fn = build_shift_nest_module(n=n, shift=0)
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        body = parallel.body.block
        store = body.ops[-2]
        b = Builder.before(body.last_op)
        one = b.insert(arith.ConstantOp.from_float(1.0)).results[0]
        more = b.insert(arith.AddfOp(store.operands[0], one)).results[0]
        b.insert(memref.StoreOp(more, store.operands[1], list(store.operands[2:])))
        src = np.asfortranarray(np.random.default_rng(24).random((n, n)))
        dst = np.zeros((n, n), order="F")
        interp = Interpreter([module], execution_mode="crosscheck")
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["vectorized_sweeps"] == 1
        assert np.array_equal(dst[1:n - 1, 1:n - 1], src[1:n - 1, 1:n - 1] * 2.0 + 1.0)
        assert out_targets(compile_loop_nest(parallel).source)

    def test_gpu_lattice_kernel_reuses_buffers_and_matches_the_oracle(self):
        result = repro.compile(pw_advection.generate_source(8)).lower(
            "gpu", lower_to_scf=True)

        def run(mode):
            fields = [f.copy(order="F") for f in pw_advection.initial_fields(8)]
            return fields, result.with_options(
                execution_mode=mode).run("pw_advection", *fields)

        oracle, _ = run("interpret")
        checked, interp = run("crosscheck")
        assert interp.stats["gpu_launches_vectorized"] > 0
        assert interp.stats["gpu_launch_fallbacks"] == 0
        assert all(o.tobytes() == c.tobytes() for o, c in zip(oracle, checked))

    def test_wrong_dtype_array_falls_back_instead_of_casting(self):
        """``out=`` would silently round a float32 input's float64 products
        back to float32; the guard sends such a sweep to the oracle."""
        module, fn = build_shift_nest_module(n=6)
        src = np.asfortranarray(np.random.default_rng(25).random((6, 6)),
                                dtype=np.float32)
        dst = np.zeros((6, 6), order="F")
        interp = Interpreter([module], execution_mode="vectorize")
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["vectorize_fallbacks"] == 1
        assert np.array_equal(dst[1:5, 1:5], src[0:4, 1:5] * 2.0)


# ---------------------------------------------------------------------------
# Kernel cache
# ---------------------------------------------------------------------------


class TestKernelCache:
    def test_structural_hash_ignores_identity(self):
        _, fn_a = build_shift_nest_module()
        _, fn_b = build_shift_nest_module()
        par_a = next(op for op in fn_a.walk() if isinstance(op, scf.ParallelOp))
        par_b = next(op for op in fn_b.walk() if isinstance(op, scf.ParallelOp))
        assert par_a is not par_b
        assert structural_hash(par_a) == structural_hash(par_b)

    def test_structural_hash_distinguishes_offsets(self):
        _, fn_a = build_shift_nest_module(shift=-1)
        _, fn_b = build_shift_nest_module(shift=1)
        par_a = next(op for op in fn_a.walk() if isinstance(op, scf.ParallelOp))
        par_b = next(op for op in fn_b.walk() if isinstance(op, scf.ParallelOp))
        assert structural_hash(par_a) != structural_hash(par_b)

    def test_repeated_sweeps_hit_the_cache(self):
        compiler = KernelCompiler(use_shared_cache=False)
        _, fn = build_shift_nest_module()
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        first = compiler.kernel_for(parallel)
        assert first is not None
        assert compiler.stats["compiled"] == 1
        assert compiler.stats["cache_hits"] == 0
        assert compiler.stats["unsupported"] == 0
        again = compiler.kernel_for(parallel)
        assert again is first
        assert compiler.stats["cache_hits"] == 1

    def test_structurally_identical_ops_share_a_kernel(self):
        compiler = KernelCompiler(use_shared_cache=False)
        _, fn_a = build_shift_nest_module()
        _, fn_b = build_shift_nest_module()
        par_a = next(op for op in fn_a.walk() if isinstance(op, scf.ParallelOp))
        par_b = next(op for op in fn_b.walk() if isinstance(op, scf.ParallelOp))
        bound_a = compiler.kernel_for(par_a)
        bound_b = compiler.kernel_for(par_b)
        assert bound_a.kernel is bound_b.kernel  # shared compiled code
        assert bound_a.external_values != bound_b.external_values  # per-op binding
        assert compiler.stats["compiled"] == 1
        assert compiler.stats["cache_hits"] == 1

    def test_iterated_stencil_compiles_once(self):
        """niters sweeps of the same apply = one compile + (niters-1) hits."""
        niters = 4
        result = repro.compile(
            gauss_seidel.generate_source(12, niters=niters)).lower("cpu")
        interp = result.with_options(execution_mode="vectorize").interpreter()
        interp.kernels = KernelCompiler(use_shared_cache=False)
        interp.call("gauss_seidel", gauss_seidel.initial_condition(12))
        assert interp.stats["vectorized_sweeps"] == niters
        assert interp.kernels.stats["compiled"] == 1
        assert interp.kernels.stats["cache_hits"] == niters - 1


# ---------------------------------------------------------------------------
# Float literals are kernel parameters
# ---------------------------------------------------------------------------

NON_FINITE_SOURCE = """
subroutine scale(a, b)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(in) :: a(n)
  real(kind=8), intent(inout) :: b(n)
  integer :: i
  do i = 2, n
    b(i) = a(i) * 1.0d999 + a(i-1)
  end do
end subroutine scale
"""

#: name -> (backend, lower options, execution mode) of the vectorized paths
VECTORIZED = {
    "cpu-vectorize": ("cpu", {}, "vectorize"),
    "cpu-crosscheck": ("cpu", {}, "crosscheck"),
    "cpu-scf": ("cpu", {"lower_to_scf": True}, "vectorize"),
    "openmp-scf": ("openmp", {"lower_to_scf": True}, "vectorize"),
    "gpu-scf": ("gpu", {"lower_to_scf": True}, "vectorize"),
}


def shift_nest(**options):
    _, fn = build_shift_nest_module(**options)
    return next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))


def gpu_for(backend):
    return {"gpu": SimulatedGPU()} if backend == "gpu" else {}


class TestFloatLiteralsAreParameters:
    def test_the_key_holds_a_float_literals_type_not_its_value(self):
        key = structural_hash(shift_nest())
        for value in (3.25, -0.0, float("inf"), float("nan")):
            assert structural_hash(shift_nest(literal=value)) == key
        assert structural_hash(shift_nest(shift=-2)) != key  # an index constant
        assert structural_hash(shift_nest(literal_type=f32)) != key
        assert structural_hash(shift_nest(combine=arith.AddfOp)) != key

    def test_one_kernel_binds_each_ops_own_literals(self):
        compiler = KernelCompiler(use_shared_cache=False)
        two, tenth = (compiler.kernel_for(shift_nest(literal=v)) for v in (2.0, 0.1))
        assert two.kernel is tenth.kernel and compiler.stats["compiled"] == 1
        assert (two.constants, tenth.constants) == ([2.0], [0.1])
        assert type(tenth.constants[0]) is float
        assert "c0 = ext[" in two.kernel.source and "2.0" not in two.kernel.source

    @pytest.mark.parametrize("config", VECTORIZED)
    def test_a_non_finite_literal_runs_like_the_oracle(self, config):
        """``1.0d999`` is inf, which has no Python literal (``repr`` gives
        the name ``inf``): only as a bound parameter can a kernel read it."""
        def run(backend, options, mode):
            a = np.linspace(1.0, 2.0, 8)  # positive: no 0 * inf NaN
            b = np.zeros(8)
            interp = repro.Session().compile(NON_FINITE_SOURCE).lower(
                backend, execution_mode=mode, **options).run(
                    "scale", a, b, **gpu_for(backend))
            return b, interp

        oracle, _ = run("cpu", {}, "interpret")
        got, interp = run(*VECTORIZED[config])
        assert np.isinf(oracle[1:]).all() and got.tobytes() == oracle.tobytes()
        assert interp.stats["vectorized_sweeps"] + \
            interp.stats["gpu_launches_vectorized"] == 1
        assert interp.kernels.stats["reasons"] == {}

    @pytest.mark.parametrize("config", ["cpu-vectorize", "cpu-scf", "gpu-scf"])
    def test_sources_differing_in_spacing_share_kernels_not_answers(self, config):
        """PW with spacings A, B, A, each a session of its own: B and the
        second A translate nothing, and each run (crosscheck too) is its own
        reference, bit for bit — no binding sees another op's constants."""
        backend, options, mode = VECTORIZED[config]
        n = 10
        spacings = {"A": (50.0, 75.0, 120.0), "B": (180.0, 60.0, 90.0)}
        compiled = []
        for name in "ABA":
            dx, dy, dz = spacings[name]
            handle = repro.Session().compile(pw_advection.generate_source(
                n, dx=dx, dy=dy, dz=dz)).lower(backend, **options)
            want = pw_advection.reference(*pw_advection.initial_fields(n)[:3],
                                          dx=dx, dy=dy, dz=dz)
            for run_mode in (mode, "crosscheck"):
                fields = [f.copy(order="F") for f in pw_advection.initial_fields(n)]
                interp = handle.with_options(execution_mode=run_mode).run(
                    "pw_advection", *fields, **gpu_for(backend))
                assert all(got.tobytes() == ref.tobytes()
                           for got, ref in zip(fields[3:], want)), (name, run_mode)
                assert interp.kernels.stats["reasons"] == {}
                compiled.append(interp.kernels.stats["compiled"])
        assert compiled[2:] == [0] * 4

    def test_a_float32_literal_keeps_float32_arithmetic(self):
        """The value binds as a Python float, as the literal in the source
        did: a NumPy float64 would promote the float32 sweep (NEP 50)."""
        n = 9
        apply_op = build_average_apply(n, element=f32, half=0.1)
        data = np.asfortranarray(np.random.default_rng(31).random((n, n)),
                                 dtype=np.float32)

        def run(mode):
            interp = Interpreter([ModuleOp([])], execution_mode=mode,
                                 kernel_compiler=KernelCompiler(use_shared_cache=False))
            frame = Frame()
            frame.set(apply_op.operands[0], TempValue(data, (0, 0)))
            [value] = interp.exec_op(apply_op, frame)
            return value.data, interp

        oracle, _ = run("interpret")
        got, interp = run("vectorize")
        assert interp.stats["vectorized_sweeps"] == 1
        [tenth] = interp.kernels.kernel_for(apply_op).constants
        assert type(tenth) is float and tenth == 0.1
        assert oracle.dtype == got.dtype == np.float32
        assert got.tobytes() == oracle.tobytes()


# ---------------------------------------------------------------------------
# Oracle equivalence on the paper's two benchmarks
# ---------------------------------------------------------------------------


def run_gauss_seidel(mode, lower_to_scf, n=14, niters=2):
    result = repro.compile(gauss_seidel.generate_source(n, niters=niters)).lower(
        "cpu", lower_to_scf=lower_to_scf)
    u = gauss_seidel.initial_condition(n)
    interp = result.with_options(execution_mode=mode).interpreter()
    interp.call("gauss_seidel", u)
    return u, interp


def run_pw_advection(mode, lower_to_scf, n=10):
    result = repro.compile(pw_advection.generate_source(n)).lower(
        "cpu", lower_to_scf=lower_to_scf)
    fields = [f.copy(order="F") for f in pw_advection.initial_fields(n)]
    interp = result.with_options(execution_mode=mode).interpreter()
    interp.call("pw_advection", *fields)
    return fields, interp


class TestOracleEquivalence:
    @pytest.mark.parametrize("lower_to_scf", [False, True])
    def test_gauss_seidel_matches_interpreter(self, lower_to_scf):
        u_ref, _ = run_gauss_seidel("interpret", lower_to_scf)
        u_vec, interp = run_gauss_seidel("vectorize", lower_to_scf)
        assert interp.stats["vectorized_sweeps"] > 0
        assert np.allclose(u_ref, u_vec)
        assert np.allclose(u_vec, gauss_seidel.reference_jacobi(
            gauss_seidel.initial_condition(14), 2))

    @pytest.mark.parametrize("lower_to_scf", [False, True])
    def test_pw_advection_matches_interpreter(self, lower_to_scf):
        ref_fields, _ = run_pw_advection("interpret", lower_to_scf)
        vec_fields, interp = run_pw_advection("vectorize", lower_to_scf)
        assert interp.stats["vectorized_sweeps"] > 0
        for ref, vec in zip(ref_fields, vec_fields):
            assert np.allclose(ref, vec)

    @pytest.mark.parametrize("lower_to_scf", [False, True])
    def test_crosscheck_mode_passes_on_both_apps(self, lower_to_scf):
        u, interp = run_gauss_seidel("crosscheck", lower_to_scf)
        assert interp.stats["vectorized_sweeps"] > 0
        fields, interp = run_pw_advection("crosscheck", lower_to_scf)
        assert interp.stats["vectorized_sweeps"] > 0

    def test_openmp_lowering_vectorizes(self):
        result = repro.compile(gauss_seidel.generate_source(12, niters=1)).lower(
            "openmp", lower_to_scf=True)
        u_ref = gauss_seidel.initial_condition(12)
        result.interpret().interpreter().call("gauss_seidel",
                                              u_ref.copy(order="F"))
        u_vec = gauss_seidel.initial_condition(12)
        interp = result.with_options(execution_mode="vectorize").interpreter()
        interp.call("gauss_seidel", u_vec)
        assert interp.stats["vectorized_sweeps"] == 1
        ref = gauss_seidel.reference_jacobi(gauss_seidel.initial_condition(12), 1)
        assert np.allclose(u_vec, ref)


def _time_lowered_run(result, entry, args, mode, repeats=1):
    """Wall-clock of one sweep in the given execution mode (best of N).
    Best-of keeps the microsecond-scale vectorized timings robust against
    GC pauses and scheduler noise; the first repeat also absorbs the
    one-off kernel compilation."""
    best = float("inf")
    for _ in range(repeats):
        run_args = [a.copy(order="F") for a in args]
        interp = result.with_options(execution_mode=mode).interpreter()
        start = time.perf_counter()
        interp.call(entry, *run_args)
        best = min(best, time.perf_counter() - start)
    return best, run_args, interp


def test_vectorized_mode_speedup_gauss_seidel():
    """The compiled-kernel backend must beat point-by-point interpretation of
    the lowered scf loop nest by >= 10x (it is typically >100x) while
    producing the same field."""
    n = 20
    result = repro.compile(
        gauss_seidel.generate_source(n, niters=1)
    ).lower("cpu", lower_to_scf=True)
    init = gauss_seidel.initial_condition(n)
    t_interp, u_interp, _ = _time_lowered_run(result, "gauss_seidel", [init], "interpret")
    t_vec, u_vec, interp = _time_lowered_run(result, "gauss_seidel", [init],
                                             "vectorize", repeats=7)
    assert interp.stats["vectorized_sweeps"] == 1
    assert np.allclose(u_interp[0], u_vec[0])
    assert t_interp / t_vec >= 10.0, (
        f"vectorized mode only {t_interp / t_vec:.1f}x faster "
        f"({t_interp:.4f}s vs {t_vec:.4f}s)"
    )


def test_vectorized_mode_speedup_pw_advection():
    n = 10
    result = repro.compile(
        pw_advection.generate_source(n)
    ).lower("cpu", lower_to_scf=True)
    fields = pw_advection.initial_fields(n)
    t_interp, f_interp, _ = _time_lowered_run(result, "pw_advection", fields, "interpret")
    t_vec, f_vec, interp = _time_lowered_run(result, "pw_advection", fields,
                                             "vectorize", repeats=7)
    assert interp.stats["vectorized_sweeps"] >= 1
    for ref, vec in zip(f_interp, f_vec):
        assert np.allclose(ref, vec)
    assert t_interp / t_vec >= 10.0, (
        f"vectorized mode only {t_interp / t_vec:.1f}x faster "
        f"({t_interp:.4f}s vs {t_vec:.4f}s)"
    )


# ---------------------------------------------------------------------------
# Guards and fallbacks
# ---------------------------------------------------------------------------


class TestGuardsAndFallbacks:
    def test_in_place_nest_falls_back_to_scalar(self):
        """dst[i,j] = dst[i-1,j]*2 has a loop-carried dependence: the alias
        guard must refuse to vectorise and the scalar path must run."""
        module, fn = build_shift_nest_module(n=6, in_place=True)
        rng = np.random.default_rng(1)
        data = np.asfortranarray(rng.random((6, 6)))
        expected = data.copy(order="F")
        for i in range(1, 5):  # the sequential semantics (row i reads row i-1)
            for j in range(1, 5):
                expected[i, j] = expected[i - 1, j] * 2.0
        interp = Interpreter([module], execution_mode="vectorize")
        buf = MemoryBuffer.wrap(data)
        interp.call_function(fn, [buf, buf])
        assert interp.stats["vectorize_fallbacks"] == 1
        assert interp.stats["vectorized_sweeps"] == 0
        assert np.allclose(data, expected)

    def test_out_of_place_nest_vectorizes(self):
        module, fn = build_shift_nest_module(n=6, in_place=False)
        rng = np.random.default_rng(2)
        src = np.asfortranarray(rng.random((6, 6)))
        dst = np.zeros((6, 6), order="F")
        interp = Interpreter([module], execution_mode="vectorize")
        interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
        assert interp.stats["vectorized_sweeps"] == 1
        assert np.allclose(dst[1:5, 1:5], src[0:4, 1:5] * 2.0)

    def test_overlapping_stores_fall_back_to_scalar(self):
        """Two stores into the same array through different index maps
        interleave per point under scalar semantics (a[i]=1; a[i+1]=2 over
        i in [1,n-1) ends ...,1,2) — the store-store alias guard must refuse
        to vectorise that."""
        n = 6
        mtype = MemRefType((n,), f64)
        fn = FuncOp.build("two_stores", [mtype], [])
        b = Builder.at_end(fn.entry_block)
        buf = fn.entry_block.args[0]
        low = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
        high = b.insert(arith.ConstantOp.from_int(n - 1, index)).results[0]
        one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
        parallel = b.insert(scf.ParallelOp([low], [high], [one]))
        body = Builder.at_end(parallel.body.block)
        i = parallel.body.block.args[0]
        first = body.insert(arith.ConstantOp.from_float(1.0)).results[0]
        second = body.insert(arith.ConstantOp.from_float(2.0)).results[0]
        step = body.insert(arith.ConstantOp.from_int(1, index)).results[0]
        body.insert(memref.StoreOp(first, buf, [i]))
        shifted = body.insert(arith.AddiOp(i, step)).results[0]
        body.insert(memref.StoreOp(second, buf, [shifted]))
        parallel.body.block.add_op(scf.YieldOp([]))
        b.insert(ReturnOp([]))
        module = ModuleOp([fn])

        data = np.zeros(n, order="F")
        interp = Interpreter([module], execution_mode="vectorize")
        interp.call_function(fn, [MemoryBuffer.wrap(data)])
        assert interp.stats["vectorize_fallbacks"] == 1
        assert interp.stats["vectorized_sweeps"] == 0
        # Scalar semantics: every point writes 1 at i then 2 at i+1, so all
        # interior points end at 1 except the final i+1.
        assert np.allclose(data, [0.0, 1.0, 1.0, 1.0, 1.0, 2.0])

    def test_transposed_store_vectorizes_correctly(self):
        """A nest over (i, j) storing dst[j, i] = src[i, j] * 2 permutes the
        induction variables at the store; the kernel must transpose the
        value (a transposed view is not an assignable target)."""
        n = 5
        mtype = MemRefType((n, n), f64)
        fn = FuncOp.build("transpose_store", [mtype, mtype], [])
        b = Builder.at_end(fn.entry_block)
        dst, src = fn.entry_block.args
        low = b.insert(arith.ConstantOp.from_int(0, index)).results[0]
        high = b.insert(arith.ConstantOp.from_int(n, index)).results[0]
        one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
        parallel = b.insert(scf.ParallelOp([low, low], [high, high], [one, one]))
        body = Builder.at_end(parallel.body.block)
        i, j = parallel.body.block.args
        load = body.insert(memref.LoadOp(src, [i, j])).results[0]
        two = body.insert(arith.ConstantOp.from_float(2.0)).results[0]
        value = body.insert(arith.MulfOp(load, two)).results[0]
        body.insert(memref.StoreOp(value, dst, [j, i]))
        parallel.body.block.add_op(scf.YieldOp([]))
        b.insert(ReturnOp([]))
        module = ModuleOp([fn])

        rng = np.random.default_rng(4)
        src_data = np.asfortranarray(rng.random((n, n)))
        dst_data = np.zeros((n, n), order="F")
        interp = Interpreter([module], execution_mode="vectorize")
        interp.call_function(
            fn, [MemoryBuffer.wrap(dst_data), MemoryBuffer.wrap(src_data)]
        )
        assert interp.stats["vectorized_sweeps"] == 1
        assert interp.stats["vectorize_fallbacks"] == 0
        assert np.allclose(dst_data, src_data.T * 2.0)

    def test_store_guard_rejects_shifted_overlapping_views(self):
        """Two stores with identical index maps are only safe into the same
        array; overlapping *views* shifted against each other must refuse."""
        n = 8
        mtype = MemRefType((n - 1,), f64)
        fn = FuncOp.build("two_bufs", [mtype, mtype], [])
        b = Builder.at_end(fn.entry_block)
        a_ref, b_ref = fn.entry_block.args
        low = b.insert(arith.ConstantOp.from_int(0, index)).results[0]
        high = b.insert(arith.ConstantOp.from_int(n - 1, index)).results[0]
        one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
        parallel = b.insert(scf.ParallelOp([low], [high], [one]))
        body = Builder.at_end(parallel.body.block)
        i = parallel.body.block.args[0]
        c1 = body.insert(arith.ConstantOp.from_float(1.0)).results[0]
        c2 = body.insert(arith.ConstantOp.from_float(2.0)).results[0]
        body.insert(memref.StoreOp(c1, a_ref, [i]))
        body.insert(memref.StoreOp(c2, b_ref, [i]))
        parallel.body.block.add_op(scf.YieldOp([]))
        b.insert(ReturnOp([]))

        kernel = compile_loop_nest(parallel)
        backing = np.zeros(n, order="F")
        shifted_a = MemoryBuffer.wrap(backing[:-1])  # elements 0..n-2
        shifted_b = MemoryBuffer.wrap(backing[1:])   # elements 1..n-1: overlaps
        disjoint_a = MemoryBuffer.wrap(np.zeros(n - 1, order="F"))
        disjoint_b = MemoryBuffer.wrap(np.zeros(n - 1, order="F"))

        def bind(a_buf, b_buf):
            externals = [None] * len(kernel.external_paths)
            (ls, us, ss) = kernel.bound_slots[0]
            externals[ls], externals[us], externals[ss] = 0, n - 1, 1
            externals[kernel.stores[0][0]] = a_buf
            externals[kernel.stores[1][0]] = b_buf
            return externals

        assert kernel.guards_pass(bind(disjoint_a, disjoint_b), [0], [n - 1], [1])
        assert kernel.guards_pass(bind(disjoint_a, disjoint_a), [0], [n - 1], [1])
        assert not kernel.guards_pass(bind(shifted_a, shifted_b), [0], [n - 1], [1])

    def test_apply_with_enclosing_scalar_vectorizes(self):
        """An apply body may reference a value defined outside its region
        (the scalar path reads it from the shared frame); the kernel binds
        it through a body-operand external path."""
        n = 8
        temp_type = stencil.TempType([[0, n], [0, n]], f64)
        fn = FuncOp.build("scaled", [], [])
        b = Builder.at_end(fn.entry_block)
        field_buf = MemoryBuffer.wrap(
            np.asfortranarray(np.random.default_rng(3).random((n, n))))
        # Build the apply with one temp operand and an enclosing constant.
        scale = b.insert(arith.ConstantOp.from_float(3.0)).results[0]
        apply_op = build_average_apply(n)
        body = apply_op.body.block
        ret = body.last_op
        value = ret.operands[0]
        ret.erase(safe=False)
        inner = Builder.at_end(body)
        scaled = inner.insert(arith.MulfOp(value, scale)).results[0]
        inner.insert(stencil.ReturnOp([scaled]))

        from repro.runtime import TempValue
        from repro.runtime.kernel_compiler import KernelCompiler

        compiler = KernelCompiler(use_shared_cache=False)
        bound = compiler.kernel_for(apply_op)
        assert bound is not None
        assert ("root", 0) in bound.kernel.external_paths
        assert any(p[0] == "body" for p in bound.kernel.external_paths)
        temp = TempValue(field_buf.data.copy(), (0, 0))
        externals = []
        for path in bound.kernel.external_paths:
            externals.append(temp if path == ("root", 0) else np.float64(3.0))
        assert bound.constants == [0.5]  # the body's own literal
        externals += bound.constants
        lb, ub = (1, 1), (n - 1, n - 1)
        assert bound.kernel.guards_pass(externals, lb, ub)
        [result] = bound.kernel.fn(externals, lb, ub)
        expected = (temp.data[0:n - 2, 1:n - 1] + temp.data[2:n, 1:n - 1]) * 0.5 * 3.0
        assert np.allclose(result, expected)

    def test_guards_judge_every_run_over_one_link_table(self):
        """The binding is linked once; the alias, window, step and dtype
        guards still see each run's own arguments."""
        from repro.runtime.interpreter import LinkTable

        n = 6
        module, fn = build_shift_nest_module(n=n, row_range_args=True)
        table = LinkTable([module])
        src = np.asfortranarray(np.random.default_rng(26).random((n, n)))

        def run(dst, source, low=1, high=n - 1, step=1):
            interp = Interpreter(table, execution_mode="vectorize")
            interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(source)]
                                 + [np.int64(v) for v in (low, high, step)])
            return interp.stats["vectorized_sweeps"], interp.stats["vectorize_fallbacks"]

        def zeros():
            return np.zeros((n, n), order="F")

        dst = zeros()
        assert run(dst, src) == (1, 0)
        assert np.array_equal(dst[1:5, 1:5], src[0:4, 1:5] * 2.0)
        assert len(table.bindings) == 1
        aliased = src.copy(order="F")
        assert run(aliased, aliased) == (0, 1)                  # alias guard
        assert np.array_equal(aliased[4, 1:5], src[0, 1:5] * 16.0)
        dst = zeros()
        assert run(dst, src, step=2) == (0, 1)                  # step guard
        assert np.array_equal(dst[1:5:2, 1:5], src[0:4:2, 1:5] * 2.0)
        assert not dst[2].any()
        dst = zeros()
        assert run(dst, src, low=0) == (0, 1)                   # window guard
        assert np.array_equal(dst[0, 1:5], src[-1, 1:5] * 2.0)  # as the oracle wraps
        dst = zeros()
        assert run(dst, src.astype(np.float32)) == (0, 1)       # dtype guard
        dst = zeros()
        assert run(dst, src) == (1, 0)
        assert np.array_equal(dst[1:5, 1:5], src[0:4, 1:5] * 2.0)
        assert len(table.bindings) == 1

    @staticmethod
    def _nest_with_an_if(n=6):
        """The shift nest with an (empty) ``scf.if`` ahead of its store."""
        module, fn = build_shift_nest_module(n=n)
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        body = parallel.body.block
        store = next(op for op in body.ops if op.name == "memref.store")
        cond = arith.CmpiOp("slt", *body.args)
        body.insert_op_before(cond, store)
        body.insert_op_before(scf.IfOp(cond.results[0]), store)
        return module, fn, parallel

    def test_a_fallback_keeps_its_reason_on_every_interpreter(self):
        """The verdict is recorded once per op — with why, for the first
        interpreter, later ones over the same link table, and another
        module's op that hits the same structural-cache None."""
        from repro.runtime.interpreter import LinkTable

        module, fn, parallel = self._nest_with_an_if()
        label = f"scf.parallel@{structural_hash(parallel)[:10]}"
        why = "KernelUnsupported: operation 'scf.if' is not vectorizable"
        table = LinkTable([module])
        src = np.asfortranarray(np.random.default_rng(4).random((6, 6)))
        for run in range(2):
            dst = np.zeros((6, 6), order="F")
            interp = Interpreter(table, execution_mode="vectorize")
            interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)])
            assert interp.stats["vectorize_fallbacks"] == 1
            assert np.array_equal(dst[1:5, 1:5], src[0:4, 1:5] * 2.0)
            assert interp.kernels.stats["reasons"] == {label: why}
        assert interp.kernels.stats["cache_hits"] == 1      # the table's verdict
        assert interp.kernels.stats["unsupported"] == 0
        other_module, other_fn, _ = self._nest_with_an_if()
        other = Interpreter([other_module], execution_mode="vectorize")
        other.call_function(other_fn, [MemoryBuffer.wrap(np.zeros((6, 6), order="F")),
                                       MemoryBuffer.wrap(src)])
        assert other.kernels.stats["reasons"] == {label: why}
        assert other.kernels.stats["unsupported"] == 0      # structural None

    def test_unvectorizable_apply_reports_why_at_lookup(self):
        apply_op = build_average_apply()
        body = apply_op.body.block
        cond = arith.ConstantOp.from_int(1, index)
        body.insert_op_before(cond, body.last_op)
        body.insert_op_before(scf.IfOp(cond.results[0]), body.last_op)
        compiler = KernelCompiler()
        assert compiler.kernel_for(apply_op) is None
        assert compiler.stats["reasons"] == {
            f"stencil.apply@{structural_hash(apply_op)[:10]}":
                "KernelUnsupported: operation 'scf.if' is not vectorizable"}

    def test_bind_failure_reports_the_exception_class(self):
        """A kernel whose external paths do not resolve on the op (here: a
        nest kernel planted under an apply's hash) is a counted fallback
        with the binder's exception as its reason."""
        _, fn = build_shift_nest_module()
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        apply_op = build_average_apply()
        compiler = KernelCompiler(use_shared_cache=False)
        compiler._structural[structural_hash(apply_op)] = compile_loop_nest(parallel)
        assert compiler.kernel_for(apply_op) is None
        assert compiler.kernel_for(apply_op) is None
        assert compiler.stats["unsupported"] == 1 and compiler.stats["cache_hits"] == 2
        (label, why), = compiler.stats["reasons"].items()
        assert label == f"stencil.apply@{structural_hash(apply_op)[:10]}"
        assert why.startswith("IndexError: ")

    def test_unknown_execution_mode_rejected(self):
        module, _ = build_shift_nest_module()
        with pytest.raises(InterpreterError, match="execution mode"):
            Interpreter([module], execution_mode="warp-speed")
        with pytest.raises(OptionError, match="execution_mode"):
            CpuOptions(execution_mode="warp-speed")

    def test_options_carry_mode_to_interpreter(self):
        result = repro.compile(gauss_seidel.generate_source(8, niters=1)).lower(
            "cpu", execution_mode="vectorize")
        interp = result.interpreter()
        assert interp.execution_mode == "vectorize"
        assert result.interpret().interpreter().execution_mode == "interpret"


# ---------------------------------------------------------------------------
# Built whole at the first lookup-to-run
# ---------------------------------------------------------------------------


class TestOneStepBuild:
    N = 8

    def handle(self, **options):
        return repro.Session().compile(
            pw_advection.generate_source(self.N)).lower("cpu", **options)

    def run(self, handle, mode="vectorize"):
        fields = [f.copy(order="F") for f in pw_advection.initial_fields(self.N)]
        interp = handle.with_options(execution_mode=mode).run("pw_advection", *fields)
        return interp, b"".join(f.tobytes() for f in fields[3:])

    def test_the_constructor_builds_both_bodies(self, monkeypatch):
        import builtins

        compiled = []
        real = builtins.compile
        monkeypatch.setattr(builtins, "compile", lambda source, filename, *rest:
                            compiled.append(filename) or real(source, filename, *rest))
        kernel = compile_apply(build_average_apply(), "average")
        assert compiled == ["<_apply_kernel>"] * 2
        assert kernel.label == "average" and kernel.tileable and kernel.rank == 2
        assert "def _apply_kernel(ext, lb, ub):" in kernel.source
        assert "def _apply_kernel(ext, lb, ub, s, lo, n, shape):" in kernel.flat_source
        assert callable(kernel._windowed) and callable(kernel._flat)
        assert kernel.loads and kernel.arrays_per_point >= 2

    def test_a_render_bug_is_a_counted_fallback_at_the_first_run(
            self, empty_kernel_cache, monkeypatch):
        from repro.runtime.kernel_compiler import _BodyTranslator

        _, oracle = self.run(self.handle(), mode="interpret")
        empty_kernel_cache.clear()
        monkeypatch.setattr(_BodyTranslator, "render",
                            lambda self, flat=False: (["def"], 0))
        handle = self.handle()
        [apply_op] = [op for op in handle.stencil_module.walk()
                      if isinstance(op, stencil.ApplyOp)]
        for sweep in range(2):
            interp, got = self.run(handle)
            assert got == oracle
            assert interp.stats["vectorize_fallbacks"] == 1
            (label, why), = interp.kernels.stats["reasons"].items()
            assert label == f"stencil.apply@{structural_hash(apply_op)[:10]}"
            assert why.startswith("SyntaxError")
            # The first run fails to build the kernel and counts it once;
            # later interpreters read the verdict.
            assert interp.kernels.stats["unsupported"] == (1 if sweep == 0 else 0)
            assert interp.kernels.stats["compiled"] == 0
        assert list(empty_kernel_cache.values()) == [why]

    def test_two_threads_first_calling_one_shared_kernel(self, empty_kernel_cache,
                                                         fuzz_seeds):
        """Both racers build the kernel (all codegen runs in this window);
        both leave with the one published first.  ``--fuzz-seeds`` scales
        the attempts (5 in tier-1)."""
        import sys
        import threading

        _, oracle = self.run(self.handle(), mode="interpret")
        attempts = max(5, fuzz_seeds // 5)
        results, errors = {}, []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for attempt in range(attempts):
                empty_kernel_cache.clear()
                handle = self.handle()
                barrier = threading.Barrier(2)

                def first_call(who):
                    try:
                        barrier.wait(timeout=10)
                        interp, got = self.run(handle)
                        results[attempt, who] = (
                            got, interp.kernels.stats["unsupported"],
                            interp.stats["vectorize_fallbacks"])
                    except Exception as exc:  # reported below, in the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=first_call, args=(who,))
                           for who in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(results) == 2 * attempts
        assert all(outcome == (oracle, 0, 0) for outcome in results.values())

    def test_a_kernel_put_back_into_the_cache_runs(self, empty_kernel_cache):
        """``run → empty _SHARED_CACHE → run → restore → run`` on one handle,
        then a fresh handle that finds the put-back kernel."""
        _, oracle = self.run(self.handle(), mode="interpret")
        empty_kernel_cache.clear()
        handle = self.handle()
        [apply_op] = [op for op in handle.stencil_module.walk()
                      if isinstance(op, stencil.ApplyOp)]
        assert self.run(handle)[1] == oracle
        [parked] = empty_kernel_cache.values()
        held = dict(empty_kernel_cache)
        empty_kernel_cache.clear()
        first, got = self.run(handle)
        assert got == oracle
        # An emptied cache is the handle's own binding for a handle that
        # ran, and a compile for one that never did.
        assert first.kernels.stats["compiled"] == 0
        other, got = self.run(self.handle())
        assert got == oracle and other.kernels.stats["compiled"] == 1
        empty_kernel_cache.clear()
        empty_kernel_cache.update(held)
        assert self.run(handle)[1] == oracle
        fresh = self.handle()
        again, got = self.run(fresh)
        [fresh_apply] = [op for op in fresh.stencil_module.walk()
                         if isinstance(op, stencil.ApplyOp)]
        assert got == oracle and again.kernels.kernel_for(fresh_apply).kernel is parked
        assert again.kernels.stats["compiled"] == 0
        assert again.kernels.stats["unsupported"] == 0


# ---------------------------------------------------------------------------
# One translation, two renderings: the flat body and when it is refused
# ---------------------------------------------------------------------------


def shift_externals(kernel, src, dst, n):
    """The external vector of the ``build_shift_nest_module`` kernel, its
    parameter (the 2.0 literal) last."""
    externals = [None] * len(kernel.external_paths)
    for low, high, step in kernel.bound_slots:
        externals[low], externals[high], externals[step] = 1, n - 1, 1
    externals[kernel.loads[0][0]] = MemoryBuffer.wrap(src)
    externals[kernel.stores[0][0]] = MemoryBuffer.wrap(dst)
    return externals + [2.0]


def windowed_only(monkeypatch):
    from repro.runtime.kernel_compiler import CompiledKernel

    monkeypatch.setattr(CompiledKernel, "flat_plan",
                        lambda self, ext, lb, ub: "switched off")


class TestFlatRendering:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("backend, options", [
        ("cpu", {}), ("cpu", {"lower_to_scf": True}),
        ("openmp", {"lower_to_scf": True}),
        ("gpu", {"lower_to_scf": True})])
    @pytest.mark.parametrize("app", [gauss_seidel, pw_advection])
    def test_both_apps_run_flat_and_bitwise_as_windowed(
            self, app, backend, options, threads, monkeypatch):
        n = 12
        entry = app.__name__.rsplit(".", 1)[1]
        handle = repro.Session().compile(app.generate_source(n, niters=2)).lower(
            backend, **options)

        def run():
            args = [gauss_seidel.initial_condition(n)] if app is gauss_seidel \
                else [f.copy(order="F") for f in pw_advection.initial_fields(n)]
            interp = handle.with_options(
                execution_mode="vectorize", threads=threads).run(entry, *args)
            assert interp.kernels.stats["reasons"] == {}
            return b"".join(a.tobytes() for a in args), \
                interp.kernels.stats["renderings"]

        flat, renderings = run()
        assert set(renderings) == {"flat"}      # thread slabs included
        assert renderings["flat"] >= (threads if backend == "openmp" else 1)
        with monkeypatch.context() as patched:
            windowed_only(patched)
            windowed, renderings = run()
        assert set(renderings) == {"switched off"}
        assert flat == windowed

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_generated_kernels_of_every_rank(self, rank, monkeypatch):
        from repro.fuzz import DifferentialRunner, generate_spec

        runner = DifferentialRunner()
        specs = [spec for spec in map(generate_spec, range(60))
                 if spec.rank == rank and spec.style == "general"][:6]
        assert len(specs) == 6
        ran_flat = 0
        for spec in specs:
            spec = spec.replace(extents=(11, 9, 8)[:rank])
            oracle = runner.run_oracle(spec)
            for lowered in (False, True):
                options = {"lower_to_scf": True} if lowered else {}
                handle = runner.session.compile(spec.render()).lower(
                    "cpu", execution_mode="vectorize", **options)
                outputs = []
                for flat in (True, False):
                    with monkeypatch.context() as patched:
                        if not flat:
                            windowed_only(patched)
                        arrays, scalar = runner.inputs_for(spec)
                        work = {k: v.copy(order="F") for k, v in arrays.items()}
                        interp = handle.interpreter()
                        with np.errstate(over="ignore", invalid="ignore"):
                            interp.call(spec.entry,
                                        *runner._call_args(spec, work, scalar))
                        outputs.append(work)
                        if flat:
                            ran_flat += interp.kernels.stats["renderings"].get("flat", 0)
                for name, want in oracle.items():
                    assert outputs[0][name].tobytes() == want.tobytes() \
                        == outputs[1][name].tobytes()
        assert ran_flat >= 6

    @pytest.mark.parametrize("reason, src_of, dst_of", [
        ("flat", np.asfortranarray, np.asfortranarray),
        ("flat", np.ascontiguousarray, np.ascontiguousarray),
        ("mixed memory order", np.ascontiguousarray, np.asfortranarray),
        ("differing shapes", lambda a: np.asfortranarray(np.vstack([a, a])),
         np.asfortranarray),
        ("strided array", lambda a: np.asfortranarray(np.hstack([a, a]))[:, ::2],
         lambda a: np.asfortranarray(np.hstack([a, a]))[:, ::2]),
    ], ids=["F", "C", "mixed-C-F", "shapes", "strided"])
    def test_array_properties_choose_the_body_per_call(self, reason, src_of, dst_of):
        n = 9
        module, fn = build_shift_nest_module(n=n)
        rng = np.random.default_rng(5)
        data = rng.random((n, n))
        src, dst = src_of(data), dst_of(np.zeros((n, n)))
        compiler = KernelCompiler(use_shared_cache=False)
        interp = Interpreter(module, execution_mode="crosscheck",
                             kernel_compiler=compiler)
        interp.call("shift", MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src))
        assert interp.stats["vectorized_sweeps"] == 1
        assert compiler.stats["renderings"] == {reason: 1}
        assert np.array_equal(dst[1:n - 1, 1:n - 1], 2 * src[0:n - 2, 1:n - 1])
        kernel, = (k for k in compiler._structural.values())
        assert kernel._flat is not None  # built with the kernel, taken or not

    def test_translations_with_no_flat_rendering_say_why(self):
        n = 7
        _, _, broadcast = build_broadcast_nest_module(n)
        indexed, _ = build_mixed_apply(n)
        assert compile_loop_nest(broadcast).flat_refusal == "lower-rank operand"
        assert compile_apply(indexed).flat_refusal == "induction value as data"
        assert compile_apply(build_average_apply()).flat_refusal is None
        for kernel in (compile_loop_nest(broadcast), compile_apply(indexed)):
            assert kernel.flat_source is None and "def " in kernel.source

        # dst[i] = extf(src[i]): one element size per flat span.
        f32 = repro.ir.FloatType(32)
        fn = FuncOp.build("widen", [MemRefType((n,), f64), MemRefType((n,), f32)], [])
        b = Builder.at_end(fn.entry_block)
        dst, src = fn.entry_block.args
        low = b.insert(arith.ConstantOp.from_int(0, index)).results[0]
        high = b.insert(arith.ConstantOp.from_int(n, index)).results[0]
        one = b.insert(arith.ConstantOp.from_int(1, index)).results[0]
        parallel = b.insert(scf.ParallelOp([low], [high], [one]))
        body = Builder.at_end(parallel.body.block)
        i, = parallel.body.block.args
        narrow = body.insert(memref.LoadOp(src, [i])).results[0]
        wide = body.insert(arith.ExtFOp(narrow, f64)).results[0]
        body.insert(memref.StoreOp(wide, dst, [i]))
        parallel.body.block.add_op(scf.YieldOp([]))
        b.insert(ReturnOp([]))
        compiler = KernelCompiler(use_shared_cache=False)
        interp = Interpreter(ModuleOp([fn]), execution_mode="crosscheck",
                             kernel_compiler=compiler)
        values = np.arange(n, dtype=np.float32) / 3
        out = np.zeros(n)
        interp.call("widen", out, values)
        assert out.tobytes() == values.astype(np.float64).tobytes()
        assert compiler.stats["renderings"] == {"dtype mix": 1}

    def test_refused_translations_are_counted_where_they_run(self):
        n = 7
        module, fn, parallel = build_broadcast_nest_module(n)
        compiler = KernelCompiler(use_shared_cache=False)
        interp = Interpreter(module, execution_mode="vectorize",
                             kernel_compiler=compiler)
        interp.call("mixed", np.zeros((n, n), order="F"),
                    np.asfortranarray(np.ones((n, n))), np.ones(n))
        assert compiler.stats["renderings"] == {"lower-rank operand": 1}

    def test_a_box_narrow_in_the_unit_stride_dimension_runs_windowed(self):
        """Rows [1, 3) of a Fortran-ordered 12 x 10 box span ~n/2 lanes per
        point, so the box is sparse; rows [1, 11) are dense."""
        n = 12
        module, fn = build_shift_nest_module(n=n, row_range_args=True)
        src = np.asfortranarray(np.random.default_rng(8).random((n, n)))
        for high, expected in ((3, {"sparse box": 1}), (n - 1, {"flat": 1})):
            dst = np.zeros((n, n), order="F")
            compiler = KernelCompiler(use_shared_cache=False)
            interp = Interpreter(module, execution_mode="crosscheck",
                                 kernel_compiler=compiler)
            interp.call_function(fn, [MemoryBuffer.wrap(dst), MemoryBuffer.wrap(src)]
                                 + [np.int64(v) for v in (1, high, 1)])
            assert interp.stats["vectorized_sweeps"] == 1
            assert compiler.stats["renderings"] == expected
            assert np.array_equal(dst[1:high, 1:n - 1], 2 * src[0:high - 1, 1:n - 1])

    def test_lanes_between_rows_neither_leak_nor_warn(self):
        """The flat span of ``dst[i, j] = 2 * src[i-1, j]`` over [1, n-1)² also
        multiplies rows n-2 and n-1 of ``src``, which no lattice point reads:
        NaN, inf and a value that overflows there change nothing and report
        nothing."""
        import warnings

        n = 8
        _, fn = build_shift_nest_module(n=n)
        parallel = next(op for op in fn.walk() if isinstance(op, scf.ParallelOp))
        kernel = compile_loop_nest(parallel)
        rng = np.random.default_rng(9)
        clean = np.asfortranarray(rng.random((n, n)))
        dirty = clean.copy(order="F")
        dirty[n - 2, :] = [np.nan, np.inf, -np.inf, 1.7e308] * 2
        dirty[n - 1, :] = 1.7e308
        outputs = []
        for src in (clean, dirty):
            dst = np.full((n, n), -1.0, order="F")
            chosen = []
            with warnings.catch_warnings(), np.errstate(all="warn"):
                warnings.simplefilter("error")
                kernel.fn(shift_externals(kernel, src, dst, n),
                          (1, 1), (n - 1, n - 1), chosen)
            assert chosen == ["flat"]
            assert np.all(dst[[0, n - 1], :] == -1.0) and np.all(dst[:, [0, n - 1]] == -1.0)
            outputs.append(dst)
        assert outputs[0].tobytes() == outputs[1].tobytes()
        assert np.isfinite(outputs[1]).all()
        # The windowed body over the same operands does warn: it is the
        # lanes, not the filter, that the flat body is quiet about.
        overflowing = clean.copy(order="F")
        overflowing[2, 2] = 1.7e308
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning):
                kernel._windowed(shift_externals(
                    kernel, overflowing, np.zeros((n, n), order="F"), n),
                    (1, 1), (n - 1, n - 1))

    def test_pure_kernel_returns_the_box_of_its_span(self):
        n = 10
        kernel = compile_apply(build_average_apply(n))
        data = np.asfortranarray(np.random.default_rng(12).random((n, n)))
        chosen = []
        [flat] = kernel.fn([TempValue(data, (0, 0)), 0.5], (1, 1), (n - 1, n - 1), chosen)
        [windowed] = kernel._windowed([TempValue(data, (0, 0)), 0.5], (1, 1), (n - 1, n - 1))
        assert chosen == ["flat"] and flat.shape == windowed.shape == (n - 2, n - 2)
        assert flat.tobytes() == windowed.tobytes()
        assert flat.strides == data.strides and flat.base.size == (n - 3) * (n + 1) + 1
        # An origin shifts where the span starts, not what it holds.
        [shifted] = kernel.fn([TempValue(data, (-3, 2)), 0.5], (-2, 3), (n - 4, n + 1))
        assert shifted.tobytes() == windowed.tobytes()
