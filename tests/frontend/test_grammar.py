"""The grammar the parser accepts, pinned where the round-trip cannot see it.

``render_expr`` parenthesises every binary operator, so the generative
round-trip never exercises precedence: the trees of unparenthesised
expressions are pinned here as golden S-expressions (captured from the
eight-level recursive-descent parser the precedence loop replaced).  The
parser accepts exactly what ``fir_gen`` compiles; every other construct is
a ``FortranSyntaxError`` that names it.
"""

import re

import pytest

import repro
from repro.apps import pw_advection
from repro.frontend import FortranSyntaxError, compile_to_fir, parse_source
from repro.frontend.ast_nodes import BinaryOp, PrintStmt, UnaryOp, VarRef

GOLDEN = [
    ("-a**b", "(- (** a b))"),
    ("a**-b**c", "(** a (- (** b c)))"),
    ("2**-x*y", "(* (** 2 (- x)) y)"),
    ("a - -b", "(- a (- b))"),
    ("+a*b", "(* a b)"),
    ("a/b**c/d", "(/ (/ a (** b c)) d)"),
    (".not. a .and. b .or. c", "(.or. (.and. (.not. a) b) c)"),
    ("a < b .or. c >= d .and. .not. e == f",
     "(.or. (< a b) (.and. (>= c d) (.not. (== e f))))"),
    (".not. .not. a", "(.not. (.not. a))"),
    ("a - b - c", "(- (- a b) c)"),
    ("a**b**c", "(** a (** b c))"),
    ("-a*b", "(* (- a) b)"),
    ("a*-b", "(* a (- b))"),
    (".not. a < b", "(.not. (< a b))"),
    ("a .lt. -b .and. c .ne. d", "(.and. (< a (- b)) (/= c d))"),
    ("(a < b) .eq. c", "(== (< a b) c)"),
]


def sexpr(expr):
    if isinstance(expr, BinaryOp):
        return f"({expr.op} {sexpr(expr.lhs)} {sexpr(expr.rhs)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op} {sexpr(expr.operand)})"
    if isinstance(expr, VarRef):
        return expr.name
    return repr(expr.value)


def parse_assigned(expr):
    source = f"subroutine s(a, b, c, d, e, f, x, y)\n  x = {expr}\nend subroutine s\n"
    return parse_source(source).units[0].body[0].value


@pytest.mark.parametrize("expr, tree", GOLDEN, ids=[g for g, _ in GOLDEN])
def test_unparenthesised_expression_tree(expr, tree):
    assert sexpr(parse_assigned(expr)) == tree


def subroutine(*body):
    lines = "\n".join(f"  {line}" for line in body)
    return ("subroutine s(x)\n  implicit none\n"
            f"  real(kind=8), intent(inout) :: x\n{lines}\nend subroutine s\n")


REFUSED = {
    "chained relation": (subroutine("x = x < 1.0 < 2.0"),
                         r"relational operators do not chain at line 4"),
    "do while": (subroutine("do while (x > 1.0)", "  x = x / 2.0", "end do"),
                 r"'do while' is not supported at line 4"),
    "exit": (subroutine("exit"), r"'exit' is not supported at line 4"),
    "cycle": (subroutine("cycle"), r"'cycle' is not supported at line 4"),
    "string literal": (subroutine("x = 'abc'"),
                       r"a string literal is not supported in an expression at line 4"),
    # .not. starts no operand of an arithmetic operator or a relation
    ".not. after +": (subroutine("x = x + .not. x"), r"unexpected token in expression"),
    ".not. after a sign": (subroutine("x = -.not. x"), r"unexpected token in expression"),
    ".not. after <": (subroutine("x = x < .not. x"), r"unexpected token in expression"),
}


@pytest.mark.parametrize("construct", REFUSED)
def test_refused_at_parse(construct):
    source, message = REFUSED[construct]
    with pytest.raises(FortranSyntaxError, match=message):
        parse_source(source)


def test_print_and_write_lines_are_skipped_strings_and_all():
    source = subroutine("print *, 'x = ', x", "write(*, *) 'done'", "x = x + 1.0")
    body = parse_source(source).units[0].body
    assert [type(stmt) for stmt in body[:2]] == [PrintStmt, PrintStmt]
    compile_to_fir(source).verify()


FUNCTION = """function twice(x) result(y)
  implicit none
  real(kind=8), intent(in) :: x
  real(kind=8) :: y
  y = 2.0d0 * x
end function twice
"""


@pytest.mark.parametrize("spelling", [
    ".eqv.", ".EQV.", ".Eqv.", ".neqv.", ".NEQV.", ".nEqV.",
])
def test_logical_equivalence_is_refused_by_name(spelling):
    """``.eqv.`` and ``.neqv.`` lex as operators but compile to nothing; they
    used to fail as a missing ``)``."""
    source = ("subroutine s(a, b, n)\n  implicit none\n  integer :: n, i\n"
              "  real(kind=8), intent(inout) :: a(n), b(n)\n  logical :: flag\n"
              "  flag = .true.\n  do i = 1, n\n"
              f"    if (flag {spelling} (a(i) .le. b(i))) a(i) = b(i)\n"
              "  end do\nend subroutine s\n")
    message = re.escape(f"'{spelling.lower()}' is not supported at line 8")
    with pytest.raises(FortranSyntaxError, match=message):
        parse_source(source)
    with pytest.raises(FortranSyntaxError, match=message):
        compile_to_fir(source)


def test_a_function_unit_is_refused_not_compiled_without_its_result():
    """It used to lower to a ``func.func`` with no result, so calling
    ``twice`` returned nothing."""
    with pytest.raises(FortranSyntaxError, match="'function' units are not supported"):
        parse_source(FUNCTION)
    with pytest.raises(FortranSyntaxError, match="'function' units"):
        repro.Session().compile(FUNCTION).lower("flang-only")


#: Python calls ``parse_source`` made for PW n=8 with one recursive-descent
#: method per precedence level (eight per primary).
EIGHT_LEVEL_PARSE_CALLS = 17_619


def test_parsing_pw_makes_at_most_60_percent_of_the_eight_level_calls(python_calls):
    source = pw_advection.generate_source(8)
    calls = python_calls(lambda: parse_source(source))
    assert calls <= 0.60 * EIGHT_LEVEL_PARSE_CALLS, calls
