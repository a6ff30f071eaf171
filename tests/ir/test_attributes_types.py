"""Unit tests for the attribute and type system."""

import pytest

from repro.ir import (
    DenseArrayAttr,
    FloatAttr,
    FloatType,
    FunctionType,
    IntegerAttr,
    IntegerType,
    IRParser,
    MemRefType,
    ParseError,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
    DYNAMIC,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
)
from repro.dialects import dmp, fir, mpi, stencil
from repro.dialects.llvm import LLVMPointerType


class TestScalarAttributes:
    def test_string_attr_equality(self):
        assert StringAttr("abc") == StringAttr("abc")
        assert StringAttr("abc") != StringAttr("abd")

    def test_string_attr_print_escapes_quotes(self):
        assert StringAttr('say "hi"').print() == '"say \\"hi\\""'

    def test_integer_attr_carries_type(self):
        attr = IntegerAttr(42, i32)
        assert attr.value == 42
        assert attr.type == i32
        assert "42" in attr.print()

    def test_integer_attr_helpers(self):
        assert IntegerAttr.from_int(3).type == i64

    def test_float_attr(self):
        attr = FloatAttr(0.25, f64)
        assert attr.value == 0.25
        assert attr == FloatAttr(0.25, f64)
        assert attr != FloatAttr(0.25, f32)

    def test_unit(self):
        assert UnitAttr() == UnitAttr()

    def test_dense_array_attr(self):
        attr = DenseArrayAttr([1, -2, 3])
        assert attr.as_tuple() == (1, -2, 3)
        assert attr[1] == -2
        assert "array<i64:" in attr.print()

    def test_symbol_ref(self):
        ref = SymbolRefAttr("kernel")
        assert ref.print() == "@kernel"
        nested = SymbolRefAttr("mod", ["fn"])
        assert nested.print() == "@mod::@fn"

    def test_type_attr_wraps_types_only(self):
        assert TypeAttr(f64).type == f64
        with pytest.raises(TypeError):
            TypeAttr(IntegerAttr(1, i32))

    def test_attr_hashable(self):
        s = {IntegerAttr(1, i32), IntegerAttr(1, i32), IntegerAttr(2, i32)}
        assert len(s) == 2


class TestBuiltinTypes:
    def test_integer_type_print(self):
        assert IntegerType(32).print() == "i32"

    def test_unsigned_integer_spelling_is_refused(self):
        # No compile builds one, and storage would have run it as signed.
        with pytest.raises(ParseError, match="unknown type 'ui8'"):
            IRParser("memref<4xui8>").parse_type()
        with pytest.raises(TypeError):
            IntegerType(8, signed=False)

    def test_float_type_widths(self):
        assert FloatType(64).print() == "f64"
        with pytest.raises(ValueError):
            FloatType(80)

    def test_index_and_singletons(self):
        assert index.print() == "index"
        assert i1.width == 1 and i64.width == 64

    def test_function_type_print(self):
        ft = FunctionType([f64, i32], [f64])
        assert ft.print() == "(f64, i32) -> f64"
        multi = FunctionType([], [f64, f64])
        assert multi.print() == "() -> (f64, f64)"

    def test_memref_type(self):
        m = MemRefType([4, 8], f64)
        assert m.print() == "memref<4x8xf64>"
        assert m.num_elements() == 32
        dyn = MemRefType([DYNAMIC, 8], f32)
        assert dyn.print() == "memref<?x8xf32>"
        assert dyn.num_elements() is None

    def test_type_equality_structural(self):
        assert MemRefType([2, 2], f64) == MemRefType([2, 2], f64)
        assert MemRefType([2, 2], f64) != MemRefType([2, 3], f64)

    @pytest.mark.parametrize("make", [
        lambda: FunctionType([f64, i32], [f64]),
        lambda: SymbolRefAttr("mod", ["fn"]),
        lambda: TypeAttr(f64),
        lambda: fir.HeapType(fir.SequenceType([4], f32)),
        lambda: fir.LLVMPointerType(f64),
        lambda: dmp.GridType([2, 2]),
        lambda: mpi.RequestType(),
        lambda: stencil.FieldType([[-1, 3], [0, 2]], f64),
    ], ids=["function", "symbol_ref", "type", "fir.heap", "fir.llvm_ptr",
            "dmp.grid", "mpi.request", "stencil.field"])
    def test_equal_leaves_compare_and_hash_by_key(self, make):
        first, second = make(), make()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


class TestDialectTypes:
    def test_fir_reference(self):
        ref = fir.ReferenceType(f64)
        assert ref.print() == "!fir.ref<f64>"
        assert fir.is_reference_like(ref)

    def test_fir_sequence(self):
        seq = fir.SequenceType([10, 20], f64)
        assert seq.print() == "!fir.array<10x20xf64>"
        assert seq.num_elements() == 200
        assert fir.element_type_of(fir.ReferenceType(seq)) == f64
        assert fir.array_shape_of(fir.ReferenceType(seq)) == (10, 20)

    def test_fir_heap_and_llvm_ptr(self):
        heap = fir.HeapType(fir.SequenceType([4], f32))
        assert heap.print() == "!fir.heap<!fir.array<4xf32>>"
        ptr = fir.LLVMPointerType(f64)
        assert ptr.print() == "!fir.llvm_ptr<f64>"
        assert fir.is_reference_like(ptr)

    def test_stencil_field_and_temp(self):
        field = stencil.FieldType([[-1, 255], [-1, 255]], f64)
        assert field.print() == "!stencil.field<[-1,255]x[-1,255]xf64>"
        assert field.shape == (256, 256)
        temp = stencil.TempType([[0, 16]], f64)
        assert temp.rank == 1

    def test_stencil_bounds_validation(self):
        with pytest.raises(ValueError):
            stencil.FieldType([[5, 2]], f64)

    def test_llvm_pointer(self):
        assert LLVMPointerType(f64).print() == "!llvm.ptr<f64>"
        assert LLVMPointerType(None).print() == "!llvm.ptr<>"
