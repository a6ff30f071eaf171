"""Frontend tests: lexer, parser, symbol table and FIR generation."""

import numpy as np
import pytest

import repro
from repro.dialects import arith, fir
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

    def test_a_quoted_bang_is_not_a_comment(self):
        from repro.frontend.lexer import _strip_comment

        assert _strip_comment("print *, 'a ! b', \"c ! d\" ! gone") == \
            "print *, 'a ! b', \"c ! d\" "
        untouched = "a(i) = b(i) + 'it''s'"
        assert _strip_comment(untouched) is untouched

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
        src = """
subroutine s(x)
  implicit none
  real(kind=8), intent(inout) :: x
  do while (x > 1.0)
    x = x / 2.0
  end do
end subroutine s
"""
        with pytest.raises(FortranSyntaxError, match="'do while' is not supported"):
            compile_to_fir(src)


# ---------------------------------------------------------------------------
# Shared constants and subscript chains
# ---------------------------------------------------------------------------


def run_everywhere(source, entry, make_args):
    """``entry`` through flang-only and cpu, interpreted and vectorized: the
    argument lists after the call (all four must agree with the caller's
    hand-computed expectation)."""
    for backend in ("flang-only", "cpu"):
        handle = repro.Session().compile(source).lower(backend)
        for mode in ("interpret", "vectorize"):
            args = make_args()
            handle.with_options(execution_mode=mode).run(entry, *args)
            yield args


def index_values(module, array):
    """The index operands of every ``fir.coordinate_of`` of ``array``, in order."""
    return [op.indices for op in module.walk()
            if isinstance(op, fir.CoordinateOfOp)
            and op.ref.op.uniq_name.endswith("E" + array)]


def subroutine(body, decls="real(kind=8), intent(inout) :: a(8)", args="a"):
    return f"""
subroutine s({args})
  implicit none
  {decls}
  integer :: i, j, k
{body}
end subroutine s
"""


class TestSharedSubscripts:
    def test_a_scalar_store_between_equal_subscripts_relowers_them(self):
        source = subroutine("""
  k = 2
  a(k) = 1.0
  k = k + 1
  a(k) = 2.0
  a(k + 1) = a(k) + a(k - 1)
""")
        first, second, read, below, target = index_values(compile_to_fir(source), "a")
        assert first[0] is not second[0]  # k was stored to in between
        assert read[0] is second[0]  # nothing was: one chain, two users
        assert len({id(v[0]) for v in (second, below, target)}) == 3
        for (a,) in run_everywhere(source, "s", lambda: [np.zeros(8)]):
            assert list(a) == [0, 1, 2, 3, 0, 0, 0, 0]

    def test_a_loop_body_that_advances_its_own_subscript(self):
        source = subroutine("""
  do i = 1, 4
    k = i
    a(k) = 1.0
    k = k + 4
    a(k) = 2.0
  end do
""")
        low, high = index_values(compile_to_fir(source), "a")
        assert low[0] is not high[0]
        for (a,) in run_everywhere(source, "s", lambda: [np.zeros(8)]):
            assert list(a) == [1, 1, 1, 1, 2, 2, 2, 2]

    def test_a_call_between_equal_subscripts(self):
        source = """
subroutine bump(k)
  implicit none
  integer, intent(inout) :: k
  k = k + 1
end subroutine bump
""" + subroutine("""
  k = 1
  a(k) = 1.0
  call bump(k)
  a(k) = 2.0
""")
        before, after = index_values(compile_to_fir(source), "a")
        assert before[0] is not after[0]
        for (a,) in run_everywhere(source, "s", lambda: [np.zeros(8)]):
            assert list(a) == [1, 2, 0, 0, 0, 0, 0, 0]

    def test_a_nested_region_that_assigns_the_scalar(self):
        source = subroutine("""
  k = 1
  a(k) = 1.0
  if (a(1) > 0.0) then
    k = k + 2
  end if
  a(k) = 2.0
  do j = 1, 2
    k = k + 1
  end do
  a(k) = 3.0
""")
        module = compile_to_fir(source)
        # a(k), a(1) of the condition, a(k), a(k): the three a(k) all differ.
        chains = [v[0] for v in index_values(module, "a")]
        assert len(chains) == 4 and len({id(v) for v in chains}) == 4
        for (a,) in run_everywhere(source, "s", lambda: [np.zeros(8)]):
            assert list(a) == [1, 0, 2, 0, 3, 0, 0, 0]

    def test_an_indirect_subscript_is_never_shared(self):
        source = subroutine("""
  do i = 1, 4
    k = i
    a(idx(k)) = 1.0
    idx(k) = idx(k) + 4
    a(idx(k)) = 2.0
  end do
""", decls="real(kind=8), intent(inout) :: a(8)\n  integer, intent(inout) :: idx(8)",
            args="a, idx")
        module = compile_to_fir(source)
        low, high = index_values(module, "a")
        assert low[0] is not high[0]
        # ... while the scalar-pure idx(k) is one chain with four users.  (k, not
        # i: discovery would lift ``idx(i) = idx(i) + 4`` out of the loop.)
        assert len({id(v[0]) for v in index_values(module, "idx")}) == 1

        def make_args():
            return [np.zeros(8), np.arange(1, 9, dtype=np.int32)]

        for a, idx in run_everywhere(source, "s", make_args):
            assert list(a) == [1, 1, 1, 1, 2, 2, 2, 2]
            assert list(idx) == [5, 6, 7, 8, 5, 6, 7, 8]

    def test_arrays_with_different_lower_bounds_do_not_share_the_subi(self):
        source = subroutine("""
  k = 3
  a(k) = 1.0
  b(k) = 2.0
  c(k) = 3.0
  c(k) = c(k) + a(k)
""", decls="real(kind=8), intent(inout) :: a(8), b(0:7), c(2:9)", args="a, b, c")
        module = compile_to_fir(source)
        (a_index,), (b_index,), (c_index,) = (
            {v[0] for v in index_values(module, name)} for name in "abc")
        assert isinstance(a_index.op, arith.SubiOp) and isinstance(c_index.op, arith.SubiOp)
        assert isinstance(b_index.op, fir.ConvertOp)  # lower bound 0: no subi at all
        assert a_index.op.rhs.op.literal == 1 and c_index.op.rhs.op.literal == 2
        for a, b, c in run_everywhere(source, "s", lambda: [np.zeros(8) for _ in "abc"]):
            assert (a[2], b[3], c[1]) == (1.0, 2.0, 4.0)
            assert a.sum() + b.sum() + c.sum() == 7.0

    def test_one_constant_per_value_and_type_before_every_user(self, small_pw_source):
        module = compile_to_fir(small_pw_source)
        func_op = next(op for op in module.walk() if isinstance(op, FuncOp))
        entry = func_op.entry_block.ops
        constants = [op for op in module.walk() if isinstance(op, arith.ConstantOp)]
        assert constants == list(entry[:len(constants)])
        keys = [(repr(op.literal), op.result.type) for op in constants]
        assert len(set(keys)) == len(keys)
        module.verify()  # use-before-def included


@pytest.mark.parametrize("start, stop, step, visited", [
    (8, 1, -1, [8, 7, 6, 5, 4, 3, 2, 1]),
    (8, 1, -3, [8, 5, 2]),
    (1, 8, 2, [1, 3, 5, 7]),
    (1, 8, 3, [1, 4, 7]),
    (5, 4, 1, []),
    (4, 5, -1, []),
    (3, 3, -1, [3]),
])
def test_do_loop_trip_count_is_fortrans(start, stop, step, visited):
    source = subroutine(f"""
  k = 0
  do i = {start}, {stop}, {step}
    k = k + 1
    a(i) = k
  end do
""")
    expected = np.zeros(8)
    for count, i in enumerate(visited, start=1):
        expected[i - 1] = count
    for (a,) in run_everywhere(source, "s", lambda: [np.zeros(8)]):
        assert list(a) == list(expected)


def test_a_zero_step_names_the_loop():
    from repro.runtime import InterpreterError

    source = subroutine("""
  do i = 1, 8, 0
    a(i) = 1.0
  end do
""")
    with pytest.raises(InterpreterError, match="'i' has a zero step"):
        Interpreter(compile_to_fir(source)).call("s", np.zeros(8))
