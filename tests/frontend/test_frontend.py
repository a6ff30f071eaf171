"""Frontend tests: lexer, parser, symbol table and FIR generation."""

import numpy as np
import pytest

from repro.dialects import fir
from repro.dialects.func import FuncOp
from repro.frontend import (
    FortranSyntaxError,
    SemanticError,
    SymbolTable,
    compile_to_fir,
    parse_source,
    tokenize,
)
from repro.frontend.ast_nodes import Assignment, BinaryOp, DoLoop, IfBlock, IntrinsicCall
from repro.runtime import Interpreter


class TestLexer:
    def test_keywords_and_identifiers_lowercased(self):
        tokens = tokenize("DO I = 1, N")
        assert tokens[0].kind == "KEYWORD" and tokens[0].value == "do"
        assert tokens[1].value == "i"

    def test_numbers(self):
        kinds = [t.kind for t in tokenize("x = 1 + 2.5 + 1.0d0 + 3e-2")]
        assert kinds.count("REAL") == 3
        assert kinds.count("INT") == 1

    def test_comments_stripped(self):
        tokens = tokenize("x = 1 ! a comment with = signs\n")
        assert all("comment" not in t.value for t in tokens)

    def test_continuation_lines_folded(self):
        tokens = tokenize("x = 1 + &\n    2")
        values = [t.value for t in tokens if t.kind in ("INT",)]
        assert values == ["1", "2"]

    def test_relational_operators(self):
        kinds = [t.kind for t in tokenize("if (a <= b .and. c /= d) then")]
        assert "LE" in kinds and "NE" in kinds and "DOTOP" in kinds

    def test_unexpected_character(self):
        from repro.frontend.lexer import LexError

        with pytest.raises(LexError):
            tokenize("x = `oops`")


class TestParser:
    def test_subroutine_skeleton(self, small_gs_source):
        source_file = parse_source(small_gs_source)
        unit = source_file.unit("gauss_seidel")
        assert unit.kind == "subroutine"
        assert unit.args == ["u"]
        assert len(unit.declarations) >= 3

    def test_nested_do_loops(self, small_gs_source):
        unit = parse_source(small_gs_source).unit("gauss_seidel")
        outer = unit.body[0]
        assert isinstance(outer, DoLoop) and outer.var == "it"
        k_loop = outer.body[0]
        j_loop = k_loop.body[0]
        i_loop = j_loop.body[0]
        assert [l.var for l in (k_loop, j_loop, i_loop)] == ["k", "j", "i"]
        assert isinstance(i_loop.body[0], Assignment)

    def test_expression_precedence(self):
        src = """
subroutine p(x)
  implicit none
  real(kind=8), intent(inout) :: x
  x = 1.0 + 2.0 * 3.0 ** 2
end subroutine p
"""
        stmt = parse_source(src).unit("p").body[0]
        assert isinstance(stmt.value, BinaryOp) and stmt.value.op == "+"
        assert stmt.value.rhs.op == "*"
        assert stmt.value.rhs.rhs.op == "**"

    def test_if_block_with_else(self):
        src = """
subroutine q(x)
  implicit none
  real(kind=8), intent(inout) :: x
  if (x > 0.0) then
    x = x * 2.0
  else
    x = -x
  end if
end subroutine q
"""
        stmt = parse_source(src).unit("q").body[0]
        assert isinstance(stmt, IfBlock)
        assert len(stmt.branches) == 1 and len(stmt.else_body) == 1

    def test_intrinsics_recognised(self):
        src = """
subroutine r(x, y)
  implicit none
  real(kind=8), intent(in) :: x
  real(kind=8), intent(out) :: y
  y = sqrt(abs(x)) + max(x, 2.0)
end subroutine r
"""
        stmt = parse_source(src).unit("r").body[0]
        assert isinstance(stmt.value.lhs, IntrinsicCall)

    def test_syntax_error_reports_line(self):
        with pytest.raises(FortranSyntaxError):
            parse_source("subroutine s(\n")

    def test_truncated_source_reports_the_line_it_ends_on(self):
        """EOF carries the last logical line's number (it was the token count:
        ``at line 41`` for this five-line source)."""
        src = ("subroutine s(a)\n  real(kind=8), intent(inout) :: a(4)\n"
               "  integer :: i\n  do i = 1, 4\n    a(i) = 1.0\n")
        eof = tokenize(src)[-1]
        assert (eof.kind, eof.line) == ("EOF", 5) and eof.column > len("a(i) = 1.0")
        with pytest.raises(FortranSyntaxError, match=r"expected 'end' at line 5 "):
            parse_source(src)
        assert tokenize("")[-1] == ("EOF", "", 1, 1)
        assert tokenize("\n\n! only a comment\n")[-1] == ("EOF", "", 1, 1)
        assert parse_source("").units == []

    def test_program_unit(self):
        src = """
program main
  implicit none
  integer :: i
  i = 1
end program main
"""
        assert parse_source(src).unit("main").kind == "program"


class TestSymbolTable:
    def test_parameter_evaluation(self, small_gs_source):
        unit = parse_source(small_gs_source).unit("gauss_seidel")
        table = SymbolTable(unit)
        assert table["n"].parameter_value == 10
        assert table["niters"].parameter_value == 2

    def test_array_shape_from_parameters(self, small_gs_source):
        unit = parse_source(small_gs_source).unit("gauss_seidel")
        table = SymbolTable(unit)
        assert table["u"].static_shape() == (10, 10, 10)
        assert table["u"].is_dummy

    def test_parameter_expression_dims(self):
        src = """
subroutine s(a)
  implicit none
  integer, parameter :: nx = 8
  real(kind=8), intent(inout) :: a(nx + 2, 2 * nx)
  a(1, 1) = 0.0
end subroutine s
"""
        table = SymbolTable(parse_source(src).unit("s"))
        assert table["a"].static_shape() == (10, 16)

    def test_custom_lower_bounds(self):
        src = """
subroutine s(a)
  implicit none
  real(kind=8), intent(inout) :: a(0:9, -1:8)
  integer :: i
  a(0, -1) = 1.0
end subroutine s
"""
        table = SymbolTable(parse_source(src).unit("s"))
        dims = table["a"].dims
        assert (dims[0].lower, dims[0].upper) == (0, 9)
        assert (dims[1].lower, dims[1].upper) == (-1, 8)
        assert table["a"].static_shape() == (10, 10)

    def test_undeclared_name_rejected(self):
        src = """
subroutine s(a)
  implicit none
  real(kind=8), intent(inout) :: a(4)
  a(1) = 1.0
end subroutine s
"""
        table = SymbolTable(parse_source(src).unit("s"))
        with pytest.raises(SemanticError):
            table["zz"]


class TestFIRGeneration:
    def test_flang_idioms_present(self, listing1_source):
        module = compile_to_fir(listing1_source)
        names = [op.name for op in module.walk()]
        for expected in ("fir.declare", "fir.alloca", "fir.do_loop",
                         "fir.coordinate_of", "fir.load", "fir.store", "fir.convert"):
            assert expected in names, expected

    def test_loop_variable_stored_each_iteration(self, listing1_source):
        module = compile_to_fir(listing1_source)
        loops = [op for op in module.walk() if isinstance(op, fir.DoLoopOp)]
        assert len(loops) == 2
        for loop in loops:
            first_ops = loop.body.block.ops[:2]
            assert isinstance(first_ops[0], fir.ConvertOp)
            assert isinstance(first_ops[1], fir.StoreOp)

    def test_dummy_arrays_become_references(self, small_pw_source):
        module = compile_to_fir(small_pw_source)
        func_op = next(op for op in module.walk() if isinstance(op, FuncOp))
        for arg in func_op.entry_block.args:
            assert isinstance(arg.type, fir.ReferenceType)
            assert isinstance(arg.type.element_type, fir.SequenceType)

    def test_module_verifies(self, small_gs_source):
        compile_to_fir(small_gs_source).verify()

    @pytest.mark.parametrize("expr,expected", [
        ("y = x + 1.5", 3.5),
        ("y = x * x", 4.0),
        ("y = sqrt(x)", np.sqrt(2.0)),
        ("y = max(x, 5.0)", 5.0),
        ("y = min(x, 1.0)", 1.0),
        ("y = abs(-x)", 2.0),
        ("y = x ** 3", 8.0),
        ("y = exp(0.0) + cos(0.0)", 2.0),
        ("y = (x + 1.0) / 2.0", 1.5),
        ("y = mod(7, 3) * x", 2.0),
    ])
    def test_scalar_expression_semantics(self, expr, expected):
        src = f"""
subroutine calc(x, y)
  implicit none
  real(kind=8), intent(in) :: x
  real(kind=8), intent(out) :: y
  {expr}
end subroutine calc
"""
        module = compile_to_fir(src)
        interp = Interpreter(module)
        x = np.full((), 2.0)
        y = np.full((), 0.0)
        interp.call("calc", x, y)
        assert np.isclose(float(y), expected)

    def test_if_statement_semantics(self):
        src = """
subroutine clamp(x, y)
  implicit none
  real(kind=8), intent(in) :: x
  real(kind=8), intent(out) :: y
  if (x > 1.0) then
    y = 1.0
  else if (x < 0.0) then
    y = 0.0
  else
    y = x
  end if
end subroutine clamp
"""
        module = compile_to_fir(src)
        interp = Interpreter(module)
        for value, expected in [(2.0, 1.0), (-3.0, 0.0), (0.4, 0.4)]:
            y = np.full((), -1.0)
            interp.call("clamp", np.full((), value), y)
            assert float(y) == expected

    def test_loop_with_stride(self):
        src = """
subroutine stride(a)
  implicit none
  real(kind=8), intent(inout) :: a(10)
  integer :: i
  do i = 1, 10, 2
    a(i) = 1.0
  end do
end subroutine stride
"""
        a = np.zeros(10)
        Interpreter(compile_to_fir(src)).call("stride", a)
        assert list(a) == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_call_between_subroutines(self):
        src = """
subroutine scale(a, factor)
  implicit none
  real(kind=8), intent(inout) :: a(4)
  real(kind=8), intent(in) :: factor
  integer :: i
  do i = 1, 4
    a(i) = a(i) * factor
  end do
end subroutine scale

subroutine driver(a)
  implicit none
  real(kind=8), intent(inout) :: a(4)
  call scale(a, 3.0d0)
end subroutine driver
"""
        a = np.ones(4)
        Interpreter(compile_to_fir(src)).call("driver", a)
        assert np.allclose(a, 3.0)

    def test_unsupported_construct_raises(self):
        from repro.frontend import CodegenError

        src = """
subroutine s(x)
  implicit none
  real(kind=8), intent(inout) :: x
  do while (x > 1.0)
    x = x / 2.0
  end do
end subroutine s
"""
        with pytest.raises(CodegenError):
            compile_to_fir(src)
