"""Printer/parser round-trip tests, including property-based ones."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.apps import gauss_seidel, pw_advection
from repro.dialects import arith, func, math_dialect, memref, scf
from repro.dialects.builtin import ModuleOp
from repro.frontend import compile_to_fir
from repro.ir import (
    Builder,
    FloatAttr,
    IntegerAttr,
    IRParser,
    MemRefType,
    ParseError,
    VerifyException,
    f64,
    i64,
    index,
    parse_module,
    print_module,
)


def roundtrip(module):
    text = print_module(module)
    reparsed = parse_module(text)
    reparsed.verify()
    assert print_module(reparsed) == text
    return reparsed


class TestBasicRoundTrip:
    def test_empty_module(self):
        roundtrip(ModuleOp([]))

    def test_simple_function(self):
        f = func.FuncOp.build("axpy", [f64, f64], [f64])
        b = Builder.at_end(f.entry_block)
        c = b.insert(arith.ConstantOp.from_float(2.0))
        m = b.insert(arith.MulfOp(c.result, f.entry_block.args[0]))
        a = b.insert(arith.AddfOp(m.result, f.entry_block.args[1]))
        b.insert(func.ReturnOp([a.result]))
        roundtrip(ModuleOp([f]))

    def test_nested_loops_and_memref(self):
        f = func.FuncOp.build("fill", [MemRefType([8, 8], f64)], [])
        b = Builder.at_end(f.entry_block)
        zero = b.insert(arith.ConstantOp.from_int(0, index)).result
        eight = b.insert(arith.ConstantOp.from_int(8, index)).result
        one = b.insert(arith.ConstantOp.from_int(1, index)).result
        val = b.insert(arith.ConstantOp.from_float(3.5)).result
        loop = b.insert(scf.ForOp(zero, eight, one))
        lb = Builder.at_end(loop.body.block)
        lb.insert(memref.StoreOp(val, f.entry_block.args[0],
                                 [loop.induction_variable, loop.induction_variable]))
        lb.insert(scf.YieldOp([]))
        b.insert(func.ReturnOp([]))
        roundtrip(ModuleOp([f]))

    def test_fir_module_roundtrip(self, listing1_source=None):
        source = """
subroutine axb(a)
  implicit none
  real(kind=8), intent(inout) :: a(8)
  integer :: i
  do i = 1, 8
    a(i) = sqrt(a(i)) * 2.0
  end do
end subroutine axb
"""
        roundtrip(compile_to_fir(source))

    def test_math_ops_roundtrip(self):
        f = func.FuncOp.build("m", [f64], [f64])
        b = Builder.at_end(f.entry_block)
        s = b.insert(math_dialect.SqrtOp(f.entry_block.args[0]))
        e = b.insert(math_dialect.ExpOp(s.result))
        b.insert(func.ReturnOp([e.result]))
        roundtrip(ModuleOp([f]))

    def test_unregistered_op_refused(self):
        text = '"builtin.module"() ({\n^bb0():\n  "mydialect.op"() {"x" = 1 : i64} : () -> ()\n}) : () -> ()\n'
        with pytest.raises(ParseError, match="unregistered operation 'mydialect.op'"):
            parse_module(text)


class TestParseErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            '"builtin.module"() ({',  # truncated
            '%0 = "arith.constant"() : () -> (f64) extra',  # trailing tokens
            '"builtin.module"(%undefined) : (f64) -> ()',  # undefined value
            '"builtin.module"() : (f64) -> ()',  # operand count mismatch
        ],
    )
    def test_malformed_input_raises(self, bad):
        with pytest.raises(ParseError):
            parse_module(bad)

    def test_type_mismatch_detected(self):
        text = (
            '"builtin.module"() ({\n^bb0():\n'
            '  %0 = "arith.constant"() {"value" = 1.0 : f64} : () -> (f64)\n'
            '  %1 = "arith.negf"(%0) : (i32) -> (i32)\n'
            "}) : () -> ()\n"
        )
        with pytest.raises(ParseError):
            parse_module(text)


@st.composite
def arith_expressions(draw):
    """Random arithmetic expression DAGs as (module, depth)."""
    f = func.FuncOp.build("expr", [f64, f64], [f64])
    b = Builder.at_end(f.entry_block)
    values = [f.entry_block.args[0], f.entry_block.args[1]]
    n_ops = draw(st.integers(min_value=1, max_value=12))
    for _ in range(n_ops):
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 0:
            value = draw(st.floats(min_value=-1e3, max_value=1e3,
                                   allow_nan=False, allow_infinity=False))
            values.append(b.insert(arith.ConstantOp.from_float(value)).result)
        else:
            lhs = values[draw(st.integers(0, len(values) - 1))]
            rhs = values[draw(st.integers(0, len(values) - 1))]
            cls = [arith.AddfOp, arith.SubfOp, arith.MulfOp, arith.DivfOp][choice - 1]
            values.append(b.insert(cls(lhs, rhs)).result)
    b.insert(func.ReturnOp([values[-1]]))
    return ModuleOp([f])


class TestPropertyRoundTrip:
    @given(arith_expressions())
    @settings(max_examples=40, deadline=None)
    def test_random_expression_roundtrip(self, module):
        module.verify()
        roundtrip(module)

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_dense_array_attr_roundtrip(self, values):
        from repro.ir import DenseArrayAttr

        attr = DenseArrayAttr(values)
        parsed = IRParser(attr.print()).parse_attribute()
        assert parsed == attr

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.integers(min_value=-2**63, max_value=2**63 - 1))
    @settings(max_examples=60, deadline=None)
    def test_scalar_attr_roundtrip(self, fval, ival):
        f_attr = FloatAttr(fval, f64)
        i_attr = IntegerAttr(ival, i64)
        assert IRParser(f_attr.print()).parse_attribute() == f_attr
        assert IRParser(i_attr.print()).parse_attribute() == i_attr


def printed_sections(source, backend, **options):
    """The printed modules of one compile — what the store persists."""
    compiled = Session().lower(source, backend, **options)
    return [print_module(module) for module in compiled.modules if module is not None]


@pytest.fixture(scope="module")
def pw_gpu_sections():
    return printed_sections(pw_advection.generate_source(16), "gpu", lower_to_scf=True)


#: An allocatable temporary: fir.allocmem and its !fir.heap type.
HEAP_SOURCE = """
subroutine heap(a)
  implicit none
  real(kind=8), intent(inout) :: a(8)
  real(kind=8), allocatable :: t(:)
  integer :: i
  allocate(t(8))
  do i = 1, 8
    t(i) = a(i) * 2.0
  end do
  do i = 2, 7
    a(i) = t(i - 1) + t(i + 1)
  end do
  deallocate(t)
end subroutine heap
"""


class TestCompiledModulesReload:
    @pytest.mark.parametrize("backend,options", [
        ("cpu", {}),
        ("cpu", {"lower_to_scf": True}),
        ("openmp", {}),
        ("gpu", {}),
        ("dmp", {"grid": (2, 2)}),
        ("flang-only", {}),
    ])
    @pytest.mark.parametrize("source", [
        pw_advection.generate_source(16),
        gauss_seidel.generate_source(16, niters=2),
        HEAP_SOURCE,
    ], ids=["pw", "gs", "heap"])
    def test_verifies_clean_and_reloads_byte_identical(self, source, backend, options):
        for text in printed_sections(source, backend, **options):
            module = parse_module(text)
            module.verify()
            assert print_module(module) == text

    def test_hand_written_spellings_yield_the_same_module(self):
        """A trailing comment, two ops on a line, other spacing and the
        optional parentheses around one result type build the same objects
        as the printer's spelling."""
        printed = (
            '"builtin.module"() ({\n'
            "  ^bb0():\n"
            '    %0 = "arith.constant"() {"value" = 1 : i32} : () -> (i32)\n'
            '    %1 = "arith.constant"() {"value" = 2 : i32} : () -> (i32)\n'
            '    %2 = "arith.addi"(%0, %1) : (i32, i32) -> (i32)\n'
            '    %3 = "arith.addi"(%2, %1) : (i32, i32) -> (i32)\n'
            '    %4 = "builtin.unrealized_conversion_cast"(%3) : (i32) -> ((i32) -> i32)\n'
            '    %5 = "builtin.unrealized_conversion_cast"() : () -> (!llvm.ptr<>)\n'
            '    %6 = "builtin.unrealized_conversion_cast"() : () -> (!llvm.ptr<f64>)\n'
            "}) : () -> ()\n"
        )
        by_hand = (
            '"builtin.module"() ({ ^bb0():\n'
            '%0 = "arith.constant"() {"value" = 1 : i32} : () -> (i32) // note\n'
            '%1 = "arith.constant"() {value = 2 : i32} : () -> i32'
            '  %2 = "arith.addi"(%0, %1) : (i32, i32) -> (i32)\n'
            '%3 = "arith.addi"(%2,%1):(i32,i32)->i32\n'
            '%4 = "builtin.unrealized_conversion_cast"(%3) : (i32) -> ((i32) -> (i32))\n'
            '%5 = "builtin.unrealized_conversion_cast"() : () -> (!llvm.ptr)\n'
            '%6 = "builtin.unrealized_conversion_cast"() : () -> (!llvm.ptr <f64>)\n'
            "}) : () -> ()"
        )
        assert print_module(parse_module(printed)) == printed
        assert print_module(parse_module(by_hand)) == printed

    def test_equal_type_spellings_share_one_instance_per_parse(self, pw_gpu_sections):
        parser = IRParser(pw_gpu_sections[-1])
        module = parser.parse_module()
        types = {}
        for op in module.walk():
            for value in list(op.results) + [a for r in op.regions for b in r.blocks for a in b.args]:
                assert types.setdefault(value.type.print(), value.type) is value.type
        # The memo belongs to the parser object, not to the module.
        assert IRParser("")._types == {}


class TestLargeIntegers:
    @pytest.mark.parametrize("value,attr_type", [
        (2**53 + 1, i64),
        (2**63 - 1, i64),
        (-(2**63), i64),
        (-(2**53) - 1, i64),
        (2**62 + 12345678901234567, index),
    ])
    def test_integers_above_2_53_round_trip_exactly(self, value, attr_type):
        attr = IntegerAttr(value, attr_type)
        parsed = IRParser(attr.print()).parse_attribute()
        assert parsed == attr and parsed.value == value

    def test_float_spelled_integer_still_truncates(self):
        assert IRParser("3.0 : i64").parse_attribute() == IntegerAttr(3, i64)


class TestTypedErrors:
    """ROADMAP item 3: a typed error or the right answer, never a raw exception."""

    def test_escape_at_end_of_input(self):
        with pytest.raises(ParseError, match="unterminated string literal"):
            IRParser('"abc\\').parse_string_literal()

    @pytest.mark.parametrize("spelling", [
        "none", "tensor<1xf64>", "true", "[1 : i64]", "{a = unit}",
        "dense<[1.0]> : tensor<1xf64>",
    ])
    def test_a_leaf_no_compile_builds_is_refused(self, spelling):
        with pytest.raises(ParseError):
            IRParser(spelling).parse_attribute()

    def test_non_finite_value_of_integer_type(self):
        with pytest.raises(ParseError):
            IRParser("inf : i32").parse_attribute()

    def test_escape_table(self):
        assert IRParser(r'"a\n\t\r\"\\z"').parse_string_literal() == 'a\n\t\r"\\z'

    def test_error_carries_line_column_and_snippet_inside_a_signature(self):
        text = ('"builtin.module"() ({\n^bb0():\n'
                '  %0 = "test.op"() : () -> (i32, f65)\n}) : () -> ()\n')
        with pytest.raises(ParseError) as info:
            parse_module(text)
        assert "unknown type 'f65' (line 3, column 34, near" in str(info.value)

    @staticmethod
    def _parses_or_fails_typed(text):
        try:
            parse_module(text).verify()
        except (ParseError, VerifyException):
            pass

    def test_every_prefix_of_the_gpu_payload(self, pw_gpu_sections, fuzz_seeds):
        # Every 7th byte at the CI depth (~20 s); a coarser sweep in tier-1.
        stride = 7 if fuzz_seeds >= 100 else 7 * 11
        for text in pw_gpu_sections:
            for end in range(0, len(text) - 1, stride):
                self._parses_or_fails_typed(text[:end])

    def test_single_character_mutations_of_the_gpu_payload(self, pw_gpu_sections, fuzz_seeds):
        alphabet = '"%@^!:;,.=<>()[]{}-+?x0 9a\\/\n'
        for seed in range(fuzz_seeds):
            rng = random.Random(seed)
            for _ in range(20):
                text = rng.choice(pw_gpu_sections)
                at = rng.randrange(len(text))
                self._parses_or_fails_typed(text[:at] + rng.choice(alphabet) + text[at + 1:])


def fan_out_module_text(n):
    """One ``arith.constant`` feeding ``n`` ``arith.addi`` operations."""
    lines = ['"builtin.module"() ({', "  ^bb0():", '    "func.func"() ({', "      ^bb1():",
             '        %c = "arith.constant"() {"value" = 1 : i64} : () -> (i64)']
    lines += [f'        %{k} = "arith.addi"(%c, %c) : (i64, i64) -> (i64)' for k in range(n)]
    lines += ['        "func.return"() : () -> ()',
              '    }) {"function_type" = () -> (), "sym_name" = "fan_out", '
              '"sym_visibility" = "public"} : () -> ()', "}) : () -> ()", ""]
    return "\n".join(lines)


class TestLinearCost:
    """The machine-independent gates on the reload path: both whole-module
    traversals stay linear, and the parser's constant stays small."""

    def test_parse_calls_grow_linearly_with_fan_out(self, python_calls):
        small, large = (fan_out_module_text(n) for n in (200, 800))
        assert print_module(parse_module(small)) == small
        ratio = python_calls(lambda: parse_module(large)) / python_calls(lambda: parse_module(small))
        assert ratio <= 4.5

    def test_verify_calls_grow_linearly_with_fan_out(self, python_calls):
        small, large = (parse_module(fan_out_module_text(n)) for n in (200, 800))
        ratio = python_calls(large.verify) / python_calls(small.verify)
        assert ratio <= 4.5  # 15.1 when every operand scanned its value's use list

    def test_gpu_payload_parse_call_budget(self, pw_gpu_sections, python_calls):
        # What the character-cursor parser of PR 16 (e13c88f) made on this
        # exact payload (365 op lines, 34.8 KB; Python 3.11).
        parent_calls = 82_235
        calls = python_calls(lambda: [parse_module(text) for text in pw_gpu_sections])
        assert calls <= 0.40 * parent_calls
