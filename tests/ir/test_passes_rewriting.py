"""Pass manager, pipeline parsing and cleanup pass tests."""

import pytest

import repro
from repro.api import get_backend
from repro.apps import gauss_seidel
from repro.dialects import arith, fir, func, gpu, memref
from repro.dialects.builtin import ModuleOp
from repro.ir import (
    Builder,
    MemRefType,
    ModulePass,
    PassManager,
    VerifyException,
    f64,
    index,
    parse_pipeline,
)
from repro.ir.pass_manager import ACCEPTED_PASSES, PASSES
from repro.frontend import compile_to_fir
from repro.transforms import (
    DMP_PIPELINE,
    FIR_STENCIL_PIPELINE,
    GPU_PIPELINE,
    CanonicalizePass,
    CSEPass,
)
from repro.ir import erase_and_fold


def build_module_with_redundancy():
    f = func.FuncOp.build("f", [f64], [f64])
    b = Builder.at_end(f.entry_block)
    c1 = b.insert(arith.ConstantOp.from_float(2.0))
    c2 = b.insert(arith.ConstantOp.from_float(2.0))  # duplicate
    dead = b.insert(arith.ConstantOp.from_float(99.0))  # unused
    m1 = b.insert(arith.MulfOp(f.entry_block.args[0], c1.result))
    m2 = b.insert(arith.MulfOp(f.entry_block.args[0], c2.result))
    s = b.insert(arith.AddfOp(m1.result, m2.result))
    b.insert(func.ReturnOp([s.result]))
    return ModuleOp([f])


class TestPipelineParsing:
    def test_simple_list(self):
        assert parse_pipeline("a,b,c") == [("a", {}), ("b", {}), ("c", {})]

    def test_options(self):
        parsed = parse_pipeline("tile{sizes=32,32,1 flag=true name=foo}")
        assert parsed == [("tile", {"sizes": (32, 32, 1), "flag": True, "name": "foo"})]

    def test_paper_listing4_style_options(self):
        parsed = parse_pipeline(
            "scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1},canonicalize"
        )
        assert parsed[0][1]["parallel_loop_tile_sizes"] == (32, 32, 1)
        assert parsed[1][0] == "canonicalize"

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(ValueError):
            parse_pipeline("a{b=1")

    def test_registry_contains_paper_passes(self):
        for name in (
            "discover-stencils", "extract-stencils", "convert-stencil-to-scf",
            "convert-scf-to-openmp", "convert-parallel-loops-to-gpu",
            "scf-parallel-loop-tiling", "convert-stencil-to-dmp", "convert-dmp-to-mpi",
            "canonicalize", "cse",
        ):
            assert name in PASSES, name
        assert "dce" not in PASSES  # no pipeline names it


class TestCleanupPasses:
    def test_dce_removes_unused(self):
        module = build_module_with_redundancy()
        before = sum(1 for _ in module.walk())
        erase_and_fold(module)
        after = sum(1 for _ in module.walk())
        assert after == before - 1  # the unused constant disappears
        module.verify()

    def test_cse_merges_duplicates(self):
        module = build_module_with_redundancy()
        CSEPass().apply(module)
        constants = [op for op in module.walk() if isinstance(op, arith.ConstantOp)]
        values = sorted(c.literal for c in constants)
        assert values == [2.0]  # duplicate and dead constants are gone
        muls = [op for op in module.walk() if isinstance(op, arith.MulfOp)]
        assert len(muls) == 1
        module.verify()

    def test_canonicalize_folds_constants(self):
        f = func.FuncOp.build("g", [], [index])
        b = Builder.at_end(f.entry_block)
        c2 = b.insert(arith.ConstantOp.from_int(2, index))
        c3 = b.insert(arith.ConstantOp.from_int(3, index))
        s = b.insert(arith.AddiOp(c2.result, c3.result))
        b.insert(func.ReturnOp([s.result]))
        module = ModuleOp([f])
        CanonicalizePass().apply(module)
        constants = [op.literal for op in module.walk() if isinstance(op, arith.ConstantOp)]
        assert 5 in constants
        assert not any(isinstance(op, arith.AddiOp) for op in module.walk())

    @staticmethod
    def build_memory_module():
        """``f(buf, x)``: load buf[0], store x to buf[0], load buf[0] again,
        return the sum; plus an unused load, gpu.alloc, gpu.memcpy and
        fir.call."""
        buffer_type = MemRefType((4,), f64)
        f = func.FuncOp.build("f", [buffer_type, f64], [f64])
        buf, x = f.entry_block.args
        b = Builder.at_end(f.entry_block)
        zero = b.insert(arith.ConstantOp.from_int(0, index)).result
        first = b.insert(memref.LoadOp(buf, [zero]))
        b.insert(memref.StoreOp(x, buf, [zero]))
        second = b.insert(memref.LoadOp(buf, [zero]))
        b.insert(memref.LoadOp(buf, [zero]))  # unused
        scratch = b.insert(gpu.AllocOp(buffer_type))  # unused but for the copy
        b.insert(gpu.MemcpyOp(scratch.results[0], buf))
        b.insert(fir.CallOp("side_effect", [x], [f64]))  # result unused
        total = b.insert(arith.AddfOp(first.results[0], second.results[0]))
        b.insert(func.ReturnOp([total.result]))
        return ModuleOp([f])

    @staticmethod
    def assert_only_the_unused_load_went(module):
        names = [op.name for op in module.walk()]
        assert names.count("memref.load") == 2
        for survivor in ("gpu.alloc", "memref.store", "gpu.memcpy", "fir.call"):
            assert names.count(survivor) == 1, survivor
        module.verify()

    def test_dce_erases_an_unused_load_and_nothing_that_writes(self):
        module = self.build_memory_module()
        erase_and_fold(module)
        self.assert_only_the_unused_load_went(module)

    def test_cse_never_merges_loads_across_a_store(self):
        module = self.build_memory_module()
        CSEPass().apply(module)
        self.assert_only_the_unused_load_went(module)
        add = next(op for op in module.walk() if isinstance(op, arith.AddfOp))
        assert add.operands[0] is not add.operands[1]

    def test_canonicalize_idempotent(self):
        module = build_module_with_redundancy()
        CanonicalizePass().apply(module)
        text1 = sum(1 for _ in module.walk())
        CanonicalizePass().apply(module)
        assert sum(1 for _ in module.walk()) == text1


class TestPassManager:
    def test_run_pipeline_collects_statistics(self):
        module = build_module_with_redundancy()
        pm = PassManager()
        pm.add_pipeline("canonicalize,cse,reconcile-unrealized-casts")
        stats = pm.run(module)
        assert [s.name for s in stats] == [
            "canonicalize", "cse", "reconcile-unrealized-casts"]
        assert all(s.seconds >= 0 for s in stats)

    def test_unknown_pass_rejected(self):
        pm = PassManager()
        with pytest.raises(KeyError) as error:
            pm.add("definitely-not-a-pass")
        assert "implemented passes" in str(error.value)
        assert "accepted" in str(error.value)
        for dropped in ("gpu-to-cubin", "func.func"):  # nothing parses these
            with pytest.raises(KeyError):
                pm.add(dropped)

    def test_unknown_pass_option_rejected(self):
        """A pass option nothing reads is a named error, not a TypeError from
        the pass constructor, and the error lists the options there are."""
        with pytest.raises(KeyError) as error:
            PassManager().add_pipeline("convert-scf-to-openmp{schedule=dynamic}")
        assert "'convert-scf-to-openmp' has no option(s) ['schedule']" in str(error.value)
        with pytest.raises(KeyError) as error:
            PassManager().add_pipeline("convert-stencil-to-scf{num-threads=4}")
        assert "'convert-stencil-to-scf' has no option(s) ['num_threads']" in str(error.value)
        assert "'target'" in str(error.value)

    @pytest.mark.parametrize("entry", [
        "scf-parallel-loop-tiling{parallel-loop-tile-sizes=abc}",
        "convert-stencil-to-dmp{grid=2xq}",
        "convert-stencil-to-scf{target=fpga}",
    ])
    def test_a_bad_option_value_names_the_pass(self, entry):
        """A value the pass constructor refuses is a ValueError that names
        the pass and the option, chained to the constructor's own error."""
        name, option = entry.rstrip("}").split("{")
        with pytest.raises(ValueError) as error:
            PassManager().add_pipeline(entry)
        message = str(error.value)
        assert message.startswith(f"pass '{name}' rejects {{{option}}}: ")
        assert isinstance(error.value.__cause__, ValueError)
        assert message.endswith(str(error.value.__cause__))

    @pytest.mark.parametrize("entry, given", [
        ("scf-parallel-loop-tiling{parallel-loop-tile-sizes=0}",
         "parallel-loop-tile-sizes=0"),
        # A bare flag parses as True, which is an int but not a size.
        ("scf-parallel-loop-tiling{parallel-loop-tile-sizes}",
         "parallel-loop-tile-sizes=True"),
        ("convert-stencil-to-dmp{grid=0x2}", "grid=0x2"),
        ("convert-stencil-to-dmp{grid=-1x2}", "grid=-1x2"),
    ])
    def test_a_size_below_one_names_the_pass(self, entry, given):
        """Tile sizes and grid extents are integers >= 1: anything else is
        refused when the pipeline is parsed, not when a sweep divides by it."""
        name = entry.split("{")[0]
        with pytest.raises(ValueError, match=r">= 1") as error:
            PassManager().add_pipeline(entry)
        assert str(error.value).startswith(f"pass '{name}' rejects {{{given}}}: ")

    @pytest.mark.parametrize("option", ["schedule=dynamic", "chunk_size=4",
                                        "num-threads=4"])
    def test_convert_scf_to_openmp_takes_no_options(self, option):
        """The pass has no options: each one is refused by name, and the bare
        pass still parses."""
        with pytest.raises(KeyError) as error:
            PassManager().add_pipeline(f"convert-scf-to-openmp{{{option}}}")
        name = option.split("=")[0].replace("-", "_")
        assert f"'convert-scf-to-openmp' has no option(s) ['{name}']" in \
            str(error.value)
        pm = PassManager().add_pipeline("convert-scf-to-openmp")
        assert [p.name for p in pm.passes] == ["convert-scf-to-openmp"]

    def test_accepted_names_are_recorded_not_scheduled(self):
        pm = PassManager().add_pipeline(GPU_PIPELINE)
        assert [p.name for p in pm.passes] == [
            "convert-stencil-to-scf", "scf-parallel-loop-tiling", "canonicalize",
            "convert-parallel-loops-to-gpu", "canonicalize",
            "reconcile-unrealized-casts",
        ]
        assert len(pm.accepted) == 11
        assert set(pm.accepted) <= ACCEPTED_PASSES
        assert not any(name in PASSES for name in pm.accepted)

    def test_listing4_pipeline_parses_and_runs(self):
        """The paper's Listing 4 mlir-opt pipeline: every name is implemented
        or accepted, only the implemented ones run, and a GPU launch comes
        out of an extracted Gauss-Seidel module."""
        names = [name for name, _ in parse_pipeline(GPU_PIPELINE)]
        implemented = [n for n in names if n in PASSES]
        accepted = [n for n in names if n in ACCEPTED_PASSES]
        assert sorted(implemented + accepted) == sorted(names)
        extraction = PassManager().add_pipeline(FIR_STENCIL_PIPELINE)
        extraction.run(compile_to_fir(gauss_seidel.generate_source(8, niters=1)))
        module = extraction.passes[-1].extracted_module
        pm = PassManager().add_pipeline(GPU_PIPELINE)
        stats = pm.run(module)
        assert [p.name for p in pm.passes] == implemented
        assert pm.accepted == accepted
        assert [s.name for s in stats] == implemented
        assert any(op.name == "gpu.launch_func" for op in module.walk())

    def test_pass_statistics_list_only_passes_that_ran(self):
        program = repro.Session().compile(gauss_seidel.generate_source(8, niters=1))
        assert len(program.lower("gpu").pass_statistics) == 6
        assert [s.name for s in program.lower("cpu").pass_statistics] \
            == ["convert-stencil-to-scf"]

    @pytest.mark.parametrize("grid", [(1, 1), (2, 2), (4,)])
    def test_the_dmp_pipeline_string_is_what_runs(self, grid):
        handle = repro.Session().compile(
            gauss_seidel.generate_source(8, niters=1)).lower("dmp", grid=grid)
        assert [s.name for s in handle.pass_statistics] \
            == [name for name, _ in parse_pipeline(DMP_PIPELINE)] \
            == ["convert-stencil-to-dmp", "convert-dmp-to-mpi", "convert-stencil-to-scf"]
        grid_op = next(op for op in handle.stencil_module.walk() if op.name == "dmp.grid")
        assert grid_op.shape == grid

    @pytest.mark.parametrize("pipeline", [
        "corrupt-module,test-expand-math", "test-expand-math,corrupt-module",
    ])
    def test_a_corrupting_pass_next_to_an_accepted_name_is_still_caught(
            self, pipeline, monkeypatch):
        class CorruptModule(ModulePass):
            name = "corrupt-module"

            def apply(self, module):
                next(op for op in module.walk()
                     if any(r.has_uses for r in op.results)).erase(safe=False)

        monkeypatch.setitem(PASSES, "corrupt-module", CorruptModule)
        backend = get_backend("cpu")
        artifact = backend.lower(gauss_seidel.generate_source(8, niters=1))
        with pytest.raises(VerifyException):
            backend.run_pipeline(artifact, pipeline)

    def test_custom_pass_instance(self):
        class CountOps(ModulePass):
            name = "count-ops"

            def __init__(self):
                self.count = 0

            def apply(self, module):
                self.count = sum(1 for _ in module.walk())

        module = build_module_with_redundancy()
        counter = CountOps()
        PassManager().add(counter).run(module)
        assert counter.count > 0


class TestBlockInsertion:
    def test_block_insert_ops_before_preserves_order(self):
        """Multi-op inserts land in sequence order (not reversed):
        ``insert_ops_before([a, b, c], anchor)`` yields ``a, b, c, anchor``."""
        module = build_module_with_redundancy()
        target = next(op for op in module.walk() if isinstance(op, arith.AddfOp))
        block = target.parent_block()
        new_ops = [arith.ConstantOp.from_float(float(10 + i)) for i in range(3)]
        block.insert_ops_before(new_ops, target)
        index = block.index_of(target)
        assert [op.literal for op in block.ops[index - 3:index]] == [10.0, 11.0, 12.0]
        module.verify()
