"""The compile path as deterministic counts, not timings.

What a cold compile pays for IR bookkeeping (use-def chains, ``walk``,
``erase``, ``verify``) and for generated kernels is pinned as Python ``call``
events, ``builtins.compile`` calls and translator constructions: the same
numbers on every machine.
"""

import builtins
import tracemalloc

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, fir, func, stencil
from repro.dialects.builtin import ModuleOp
from repro.frontend import compile_to_fir
from repro.ir import Builder, FloatType, Operation, f64
from repro.ir.ssa import EPOCH, MUTATIONS, Use
from repro.ir.traits import is_trivially_dead
from repro.runtime import SimulatedGPU, kernel_compiler
from repro.transforms import StencilDiscoveryPass
from repro.transforms.cleanup import CSEPass

N = 8

#: name -> (source, backend, lower options, Python calls one ``lower()`` with
#: a warm kernel cache made at the parent commit 3ea93c6, where the frontend
#: built every constant and subscript chain once per use).
CONFIGS = {
    "pw-cpu": (pw_advection.generate_source(N), "cpu", {}, 68_982),
    "pw-cpu-scf": (pw_advection.generate_source(N), "cpu",
                   {"lower_to_scf": True}, 85_065),
    "pw-gpu-scf": (pw_advection.generate_source(N, niters=2), "gpu",
                   {"lower_to_scf": True}, 104_802),
    "gs-openmp-scf": (gauss_seidel.generate_source(N, niters=3), "openmp",
                      {"lower_to_scf": True}, 14_805),
    "gs-dmp": (gauss_seidel.generate_source_shaped((N, N, N), niters=1), "dmp",
               {"grid": (2, 2)}, 12_117),
}


def lower(name):
    source, backend, options, _ = CONFIGS[name]
    return repro.Session().compile(source).lower(backend, **options)


def run_vectorized(name, handle):
    """One ``execution_mode="vectorize"`` run of ``handle`` on fresh fields."""
    if name.startswith("pw"):
        args = [f.copy(order="F") for f in pw_advection.initial_fields(N)]
        entry = "pw_advection"
    else:
        args = [gauss_seidel.initial_condition(N).copy(order="F")]
        entry = "gauss_seidel"
    kwargs = {"gpu": SimulatedGPU()} if name == "pw-gpu-scf" else {}
    return handle.vectorize().run(entry, *args, **kwargs)


@pytest.fixture
def compile_spy(monkeypatch):
    """The file names ``builtins.compile`` was called with."""
    seen = []
    real = builtins.compile

    def spy(source, filename, *args, **kwargs):
        seen.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", spy)
    return seen


@pytest.mark.parametrize("name", CONFIGS)
def test_one_lower_makes_at_most_85_or_90_percent_of_the_parents_calls(name, python_calls):
    lower(name)  # warm kernel cache
    calls = python_calls(lambda: lower(name))
    share = 0.85 if name.startswith("pw") else 0.90  # GS has fewer duplicates to lose
    assert calls <= share * CONFIGS[name][3], calls


def test_a_gpu_lower_builds_each_op_once_and_verifies_each_state_once(monkeypatch):
    """At the parent commit c4d2140 one pw-gpu-scf ``lower()`` constructed
    1,393 ops — fusion, both scf lowerings and extraction cloned what they
    kept and erased the original — and its ``verify()`` calls walked 2,687
    op visits, re-checking two states no pass had changed."""
    built, visited = [], []
    real_init, real_verify = Operation.__init__, Operation.verify

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def verify(self):
        checked = self._verified
        count = real_verify(self)
        if self._verified is not checked:  # it walked
            visited.append(count)
        return count

    monkeypatch.setattr(Operation, "__init__", init)
    monkeypatch.setattr(Operation, "verify", verify)
    lower("pw-gpu-scf")
    assert len(built) <= 0.70 * 1_393, len(built)
    assert sum(visited) <= 2_200, sum(visited)


@pytest.mark.parametrize("name, most", [("pw-cpu-scf", 615), ("pw-gpu-scf", 700)])
def test_a_lower_builds_no_duplicate_index(monkeypatch, name, most):
    """At the parent commit 2cf6bf9 the scf lowering built every shifted
    index once per access, and ``cse`` erased the copies (the GPU pipeline
    runs no ``cse``, so they stayed): 701 ops for pw-cpu-scf, 788 for
    pw-gpu-scf."""
    built = []
    real_init = Operation.__init__

    def init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Operation, "__init__", init)
    handle = lower(name)
    assert len(built) <= most, len(built)
    if name == "pw-cpu-scf":
        lowered = handle.pass_statistics[0]
        assert lowered.name == "convert-stencil-to-scf" and lowered.ops_after <= 152


@pytest.mark.parametrize("name", ["pw-cpu-scf", "gs-openmp-scf"])
def test_cse_merges_no_index_inside_a_lowered_loop_body(monkeypatch, name):
    """Inside a loop body ``cse`` finds only the float literals each fused
    statement brought along (kernels take them as parameters, by position)."""
    merged = []
    real = CSEPass._run_on_block

    def run_on_block(self, block):
        before = list(block.ops)
        real(self, block)
        if block.parent_op().name != "func.func":
            merged.extend(op for op in before if op.parent is None)

    monkeypatch.setattr(CSEPass, "_run_on_block", run_on_block)
    lower(name)
    assert all(isinstance(op, arith.ConstantOp) and isinstance(op.result.type, FloatType)
               for op in merged), [op.name for op in merged]


def test_a_nest_keeps_no_dead_op_of_the_statement_it_lifted():
    """``b(i) = c(i) * 2.0`` is lifted and ``a(idx(i)) = 1.0`` stays: the
    lifted statement's loads, subscripts and product go, the loop stays."""
    module = compile_to_fir("""
subroutine s(a, b, c, idx)
  implicit none
  integer, parameter :: n = 8
  real(kind=8), intent(inout) :: a(12), b(n), c(n)
  integer, intent(inout) :: idx(n)
  integer :: i
  do i = 1, n
    a(idx(i)) = 1.0
    b(i) = c(i) * 2.0
  end do
end subroutine s
""")
    discovery = StencilDiscoveryPass()
    discovery.apply(module)
    assert discovery.discovered == {"s": 1}
    loop = next(module.walk_type(fir.DoLoopOp))
    assert not any(is_trivially_dead(op) for op in module.walk())
    names = [op.name for op in loop.walk()]
    assert "arith.mulf" not in names and names.count("fir.store") == 2  # i, a(idx(i))
    assert names.count("fir.load") == 2 and names.count("fir.coordinate_of") == 2


@pytest.mark.parametrize("source, most_ops, most_constants", [
    (pw_advection.generate_source(N), 400, 8),  # 1,088 ops / 267 constants per use
    (gauss_seidel.generate_source(N, niters=3), 110, 8),  # 171 / 43
])
def test_the_frontend_builds_each_value_once(source, most_ops, most_constants):
    built = [op.name for op in compile_to_fir(source).walk()]
    assert len(built) <= most_ops, len(built)
    assert built.count("arith.constant") <= most_constants


@pytest.mark.parametrize("name", ["pw-cpu", "pw-cpu-scf", "pw-gpu-scf", "gs-openmp-scf"])
def test_lower_compiles_no_kernel_and_the_first_run_one_per_kernel(
        name, empty_kernel_cache, compile_spy):
    handle = lower(name)
    assert compile_spy == []
    interp = run_vectorized(name, handle)
    stats = interp.kernels.stats
    assert stats["unsupported"] == 0 and stats["reasons"] == {}
    kernels = list(empty_kernel_cache.values())
    assert len(kernels) >= 1
    # One compile() per body per kernel run, both when the kernel is built
    # at its first lookup.
    assert all(k._flat is not None for k in kernels)
    assert sorted(compile_spy) == sorted(f"<{k.name}>" for k in kernels * 2)
    del compile_spy[:]
    run_vectorized(name, handle)
    assert compile_spy == []


@pytest.mark.parametrize("name", ["pw-cpu", "pw-cpu-scf", "pw-gpu-scf"])
def test_a_catalogue_of_spacings_compiles_each_kernel_body_once(
        name, empty_kernel_cache, compile_spy):
    """PW sources that differ only in ``dx``/``dy``/``dz`` differ only in
    float literals, which kernels take as parameters: four of them compile
    each kernel body once in total, and a fifth translates nothing."""
    _, backend, options, _ = CONFIGS[name]

    def first_run(i):
        source = pw_advection.generate_source(N, dx=50.0 + i, dy=60.0 + 7 * i,
                                              dz=150.0 - 3 * i)
        interp = run_vectorized(name, repro.Session().compile(source).lower(
            backend, **options))
        assert interp.kernels.stats["reasons"] == {}
        return interp.kernels.stats["compiled"]

    translated = [first_run(i) for i in range(4)]
    kernels = list(empty_kernel_cache.values())
    assert translated == [len(empty_kernel_cache), 0, 0, 0] and kernels
    assert sorted(compile_spy) == sorted(f"<{k.name}>" for k in kernels * 2)
    assert first_run(4) == 0


@pytest.mark.parametrize("options, surviving", [({}, 1), ({"fuse_stencils": False}, 3)])
def test_one_translation_per_apply_that_survives(monkeypatch, options, surviving,
                                                 empty_kernel_cache):
    built = []
    real = kernel_compiler._BodyTranslator.__init__

    def spy(self, rank, source):
        built.append(source.name)
        real(self, rank, source)

    monkeypatch.setattr(kernel_compiler._BodyTranslator, "__init__", spy)
    handle = repro.Session().compile(pw_advection.generate_source(N)).lower(
        "cpu", **options)
    applies = [op for op in handle.stencil_module.walk()
               if isinstance(op, stencil.ApplyOp)]
    assert len(applies) == surviving and built == []  # lower() translates nothing
    args = [f.copy(order="F") for f in pw_advection.initial_fields(N)]
    for _ in range(2):
        handle.with_options(execution_mode="vectorize").run("pw_advection", *args)
    assert built == ["stencil.apply"] * surviving


@pytest.mark.parametrize("name", ["pw-cpu-scf", "gs-openmp-scf"])
def test_an_apply_lowered_away_is_never_translated(monkeypatch, name, empty_kernel_cache):
    """At ``lower_to_scf`` discovery's applies become loop nests: neither the
    compile nor the runs translate an apply body, only the nests that run."""
    translated = []
    real = kernel_compiler.compile_apply
    monkeypatch.setattr(kernel_compiler, "compile_apply",
                        lambda op, label: translated.append(op) or real(op, label))
    handle = lower(name)
    assert not any(isinstance(op, stencil.ApplyOp) for op in handle.stencil_module.walk())
    for _ in range(2):
        interp = run_vectorized(name, handle)
    assert interp.kernels.stats["unsupported"] == 0
    assert empty_kernel_cache and not any(
        isinstance(k, str) for k in empty_kernel_cache.values())
    assert translated == []


def test_erasing_users_in_reverse_order_compares_no_uses(monkeypatch):
    """200 users of one value erased last-first: at the parent every removal
    scanned the use list to its far end through ``Use.__eq__``."""
    compared = []
    f = func.FuncOp.build("f", [f64], [])
    b = Builder.at_end(f.entry_block)
    users = [b.insert(arith.NegfOp(f.entry_block.args[0])) for _ in range(200)]
    b.insert(func.ReturnOp([]))
    assert "__eq__" not in vars(Use) and "__hash__" not in vars(Use)
    monkeypatch.setattr(Use, "__eq__", lambda a, b: compared.append(a) or a is b,
                        raising=False)
    monkeypatch.setattr(Use, "__hash__", object.__hash__, raising=False)
    arg = f.entry_block.args[0]
    assert len(arg.uses) == 200
    for op in reversed(users):
        op.erase()
    assert not arg.uses and compared == []
    f.verify()


def test_verify_of_a_1000_op_block_builds_no_set_per_value(python_calls):
    def chain(n):
        f = func.FuncOp.build("f", [f64], [])
        b = Builder.at_end(f.entry_block)
        value = f.entry_block.args[0]
        for _ in range(n):
            # Every op also uses the argument: one value with n uses.
            value = b.insert(arith.AddfOp(value, f.entry_block.args[0])).result
        b.insert(func.ReturnOp([]))
        return ModuleOp([f])

    def walk(module):
        """``module.verify`` made to walk: the epoch moves on, the IR stays."""
        EPOCH[0] = next(MUTATIONS)
        return module.verify

    small, large = chain(250), chain(1000)
    small.verify(), large.verify()
    assert python_calls(walk(large)) <= 4.2 * python_calls(walk(small))
    # The pass keeps its pre-order list and one dict of definitions (97 KB
    # here); a {(id(op), index)} set per value on top of that was 525 KB.
    verify = walk(large)
    tracemalloc.start()
    try:
        verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 200 * 1000, peak


def test_operations_and_values_carry_no_instance_dict():
    op = arith.ConstantOp.from_float(1.0)
    assert not vars(op)
    for value in (op.result, func.FuncOp.build("f", [f64], []).entry_block.args[0]):
        assert not hasattr(value, "__dict__")
    assert not hasattr(Use(op, 0), "__dict__")
    assert not vars(Operation())
