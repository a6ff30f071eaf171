"""Recursive-descent parser for the Fortran subset.

It accepts exactly what :mod:`.fir_gen` compiles: ``program`` and
``subroutine`` units, ``implicit none``, type declarations with kinds,
``parameter``, ``dimension``, ``intent`` and ``allocatable`` attributes,
counted ``do`` loops (with optional stride), block and single-line ``if``,
assignments over scalar and array references, ``allocate``/``deallocate``,
``call``, ``return`` and ``stop``, and arithmetic/relational/logical
expressions with intrinsic calls.  ``print``/``write`` lines are skipped.
Anything else -- ``function`` units, ``do while``, ``exit``, ``cycle``, a
string literal in an expression -- is a :class:`FortranSyntaxError` here,
not a code-generation failure later.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, TypeVar

from .ast_nodes import (
    AllocateStmt,
    Assignment,
    BinaryOp,
    CallStmt,
    DeallocateStmt,
    Declaration,
    DimSpec,
    DoLoop,
    EntityDecl,
    Expr,
    IfBlock,
    IntLiteral,
    IntrinsicCall,
    LogicalLiteral,
    PrintStmt,
    ProgramUnit,
    RealLiteral,
    ReturnStmt,
    SourceFile,
    Statement,
    UnaryOp,
    VarRef,
)
from .lexer import Token, tokenize

T = TypeVar("T")

# Binding powers, loosest first.  ``.not.`` and a sign are prefix operators
# whose operand is parsed at _NOT and _SIGN: ``.not.`` binds tighter than
# ``.and.`` and looser than a relation (and starts no operand of a tighter
# operator), a sign tighter than ``*`` and looser than ``**`` (so ``-a**b``
# is ``-(a**b)`` and ``a**-b`` is allowed).
_OR, _AND, _NOT, _RELATION, _ADD, _MUL, _SIGN, _POW = range(1, 9)

#: Binary operators: token kind (a dot-operator's value) -> (AST op, power).
#: ``**`` associates right, a relation not at all, the rest left.
_BINARY = {
    ".or.": (".or.", _OR),
    ".and.": (".and.", _AND),
    "LT": ("<", _RELATION), ".lt.": ("<", _RELATION),
    "LE": ("<=", _RELATION), ".le.": ("<=", _RELATION),
    "GT": (">", _RELATION), ".gt.": (">", _RELATION),
    "GE": (">=", _RELATION), ".ge.": (">=", _RELATION),
    "EQ": ("==", _RELATION), ".eq.": ("==", _RELATION),
    "NE": ("/=", _RELATION), ".ne.": ("/=", _RELATION),
    "PLUS": ("+", _ADD), "MINUS": ("-", _ADD),
    "STAR": ("*", _MUL), "SLASH": ("/", _MUL),
    "POW": ("**", _POW),
}

#: Intrinsic procedures recognised by the frontend.
INTRINSICS = frozenset(
    {
        "sqrt",
        "abs",
        "exp",
        "log",
        "log10",
        "sin",
        "cos",
        "tan",
        "tanh",
        "min",
        "max",
        "mod",
        "dble",
        "real",
        "int",
        "float",
        "nint",
        "sign",
    }
)


class FortranSyntaxError(Exception):
    """Raised for source the parser cannot handle."""

    def __init__(self, message: str, token: Optional[Token] = None):
        if token is not None:
            message = f"{message} at line {token.line} (near '{token.value}')"
        super().__init__(message)


class FortranParser:
    """Parses a token stream into a :class:`SourceFile`."""

    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        try:
            return self.tokens[self.pos + offset]
        except IndexError:  # past the end: the EOF token
            return self.tokens[-1]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self.pos += 1
        return token

    def check(self, kind: str, value: Optional[str] = None, offset: int = 0) -> bool:
        token = self.peek(offset)
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self.check(kind, value):
            expected = value or kind
            raise FortranSyntaxError(f"expected '{expected}'", self.peek())
        return self.advance()

    def skip_newlines(self) -> None:
        while self.check("NEWLINE"):
            self.advance()

    def expect_end_of_statement(self) -> None:
        if self.check("EOF"):
            return
        self.expect("NEWLINE")
        self.skip_newlines()

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse(self) -> SourceFile:
        units: List[ProgramUnit] = []
        self.skip_newlines()
        while not self.check("EOF"):
            units.append(self.parse_unit())
            self.skip_newlines()
        return SourceFile(units)

    # ------------------------------------------------------------------
    # Program units
    # ------------------------------------------------------------------

    def parse_unit(self) -> ProgramUnit:
        token = self.peek()
        if self.accept("KEYWORD", "program"):
            name = self.expect("IDENT").value
            self.expect_end_of_statement()
            unit = ProgramUnit(kind="program", name=name, line=token.line)
        elif self.accept("KEYWORD", "subroutine"):
            name = self.expect("IDENT").value
            args = self._parse_list(self._parse_name) if self.check("LPAREN") else []
            self.expect_end_of_statement()
            unit = ProgramUnit(kind="subroutine", name=name, args=args, line=token.line)
        elif self.check("KEYWORD", "function"):
            raise FortranSyntaxError(
                "'function' units are not supported (write a subroutine)", token
            )
        else:
            raise FortranSyntaxError("expected 'program' or 'subroutine'", token)

        # Specification part
        while True:
            self.skip_newlines()
            if self.check("KEYWORD", "implicit"):
                self.advance()
                self.expect("KEYWORD", "none")
                self.expect_end_of_statement()
                continue
            if self.check("KEYWORD", "use"):
                # Module uses are accepted and ignored (no module system needed).
                while not self.check("NEWLINE") and not self.check("EOF"):
                    self.advance()
                self.expect_end_of_statement()
                continue
            if self._at_declaration():
                unit.declarations.append(self.parse_declaration())
                continue
            break

        # Execution part
        unit.body = self.parse_statement_block(("end",))
        self._consume_end(unit.kind, unit.name)
        return unit

    def _parse_list(self, item: Callable[[], T]) -> List[T]:
        """``( item, item, ... )``; the list may be empty."""
        self.expect("LPAREN")
        items: List[T] = []
        if not self.check("RPAREN"):
            items.append(item())
            while self.accept("COMMA"):
                items.append(item())
        self.expect("RPAREN")
        return items

    def _parse_name(self) -> str:
        return self.expect("IDENT").value

    def _consume_end(self, kind: str, name: str) -> None:
        self.expect("KEYWORD", "end")
        self.accept("KEYWORD", kind)
        self.accept("IDENT", name)
        if not self.check("EOF"):
            self.expect_end_of_statement()

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------

    _TYPE_KEYWORDS = ("integer", "real", "double", "logical")

    def _at_declaration(self) -> bool:
        return self.check("KEYWORD") and self.peek().value in self._TYPE_KEYWORDS

    def parse_declaration(self) -> Declaration:
        token = self.peek()
        decl = Declaration(line=token.line)
        base = self.expect("KEYWORD").value
        if base == "double":
            self.expect("KEYWORD", "precision")
            decl.base_type = "real"
            decl.kind = 8
        else:
            decl.base_type = base
            decl.kind = 4
            # kind selectors: real(kind=8), real(8), real*8, integer(4)...
            if self.accept("STAR"):
                decl.kind = int(self.expect("INT").value)
            elif self.check("LPAREN"):
                self.advance()
                if self.accept("KEYWORD", "kind"):
                    self.expect("ASSIGN")
                kind_token = self.expect("INT")
                decl.kind = int(kind_token.value)
                self.expect("RPAREN")

        # Attribute list
        while self.accept("COMMA"):
            if self.accept("KEYWORD", "parameter"):
                decl.attributes.append("parameter")
            elif self.accept("KEYWORD", "allocatable"):
                decl.attributes.append("allocatable")
            elif self.accept("KEYWORD", "intent"):
                self.expect("LPAREN")
                intent_token = self.advance()
                intent = intent_token.value
                if intent == "in" and self.accept("KEYWORD", "out"):
                    intent = "inout"
                decl.intent = intent
                self.expect("RPAREN")
            elif self.accept("KEYWORD", "dimension"):
                decl.attributes.append("dimension")
                decl.default_dims = self._parse_list(self._parse_dim_spec)  # type: ignore[attr-defined]
            else:
                raise FortranSyntaxError("unsupported declaration attribute", self.peek())

        self.expect("DCOLON")

        while True:
            entity = EntityDecl(line=self.peek().line)
            entity.name = self.expect("IDENT").value
            if self.check("LPAREN"):
                entity.dims = self._parse_list(self._parse_dim_spec)
            elif getattr(decl, "default_dims", None):
                entity.dims = list(decl.default_dims)  # type: ignore[attr-defined]
            if self.accept("ASSIGN"):
                entity.init = self.parse_expression()
            decl.entities.append(entity)
            if not self.accept("COMMA"):
                break
        self.expect_end_of_statement()
        return decl

    def _parse_dim_spec(self) -> DimSpec:
        if self.accept("COLON"):
            return DimSpec(lower=None, upper=None)  # deferred shape
        first = self.parse_expression()
        if self.accept("COLON"):
            if self.check("COMMA") or self.check("RPAREN"):
                return DimSpec(lower=first, upper=None)
            upper = self.parse_expression()
            return DimSpec(lower=first, upper=upper)
        return DimSpec(lower=None, upper=first)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def parse_statement_block(self, stop_keywords: Tuple[str, ...]) -> List[Statement]:
        """Parse statements until one of ``stop_keywords`` begins a line."""
        body: List[Statement] = []
        while True:
            self.skip_newlines()
            if self.check("EOF"):
                break
            if self.check("KEYWORD") and self.peek().value in stop_keywords:
                break
            body.append(self.parse_statement())
        return body

    def parse_statement(self) -> Statement:
        token = self.peek()
        if self.check("KEYWORD", "do"):
            return self.parse_do()
        if self.check("KEYWORD", "if"):
            return self.parse_if()
        if self.accept("KEYWORD", "call"):
            name = self.expect("IDENT").value
            args = self._parse_list(self.parse_expression) if self.check("LPAREN") else []
            self.expect_end_of_statement()
            return CallStmt(name=name, args=args, line=token.line)
        if self.accept("KEYWORD", "return"):
            self.expect_end_of_statement()
            return ReturnStmt(line=token.line)
        if token.kind == "KEYWORD" and token.value in ("exit", "cycle"):
            raise FortranSyntaxError(f"'{token.value}' is not supported", token)
        if self.accept("KEYWORD", "stop"):
            while not self.check("NEWLINE") and not self.check("EOF"):
                self.advance()
            self.expect_end_of_statement()
            return ReturnStmt(line=token.line)
        if self.accept("KEYWORD", "allocate"):
            allocations = self._parse_list(self._parse_var_ref)
            self.expect_end_of_statement()
            return AllocateStmt(allocations=allocations, line=token.line)
        if self.accept("KEYWORD", "deallocate"):
            names = self._parse_list(self._parse_name)
            self.expect_end_of_statement()
            return DeallocateStmt(names=names, line=token.line)
        if self.accept("KEYWORD", "print") or self.accept("KEYWORD", "write"):
            # Consume the rest of the line; output statements have no effect on
            # the numerical kernels this frontend targets.
            while not self.check("NEWLINE") and not self.check("EOF"):
                self.advance()
            self.expect_end_of_statement()
            return PrintStmt(line=token.line)
        # Fallback: assignment
        return self.parse_assignment()

    def parse_assignment(self) -> Assignment:
        token = self.peek()
        target = self._parse_var_ref()
        self.expect("ASSIGN")
        value = self.parse_expression()
        self.expect_end_of_statement()
        return Assignment(target=target, value=value, line=token.line)

    def parse_do(self) -> DoLoop:
        token = self.expect("KEYWORD", "do")
        if self.check("KEYWORD", "while"):
            raise FortranSyntaxError("'do while' is not supported", token)
        var = self.expect("IDENT").value
        self.expect("ASSIGN")
        start = self.parse_expression()
        self.expect("COMMA")
        stop = self.parse_expression()
        step: Optional[Expr] = None
        if self.accept("COMMA"):
            step = self.parse_expression()
        self.expect_end_of_statement()
        body = self.parse_statement_block(("end", "enddo"))
        self._consume_block_end("do")
        return DoLoop(var=var, start=start, stop=stop, step=step, body=body, line=token.line)

    def _consume_block_end(self, kind: str) -> None:
        if self.accept("KEYWORD", "enddo"):
            self.expect_end_of_statement()
            return
        if self.accept("KEYWORD", "endif"):
            self.expect_end_of_statement()
            return
        self.expect("KEYWORD", "end")
        self.accept("KEYWORD", kind)
        self.expect_end_of_statement()

    def parse_if(self) -> Statement:
        token = self.expect("KEYWORD", "if")
        self.expect("LPAREN")
        condition = self.parse_expression()
        self.expect("RPAREN")
        if not self.check("KEYWORD", "then"):
            # single statement if
            stmt = self.parse_statement()
            block = IfBlock(line=token.line)
            block.branches.append((condition, [stmt]))
            return block
        self.expect("KEYWORD", "then")
        self.expect_end_of_statement()
        block = IfBlock(line=token.line)
        body = self.parse_statement_block(("end", "endif", "else", "elseif"))
        block.branches.append((condition, body))
        while True:
            if self.accept("KEYWORD", "elseif") or (
                self.check("KEYWORD", "else") and self.check("KEYWORD", "if", offset=1)
            ):
                if self.peek().value == "else":
                    self.advance()
                    self.advance()
                self.expect("LPAREN")
                cond = self.parse_expression()
                self.expect("RPAREN")
                self.expect("KEYWORD", "then")
                self.expect_end_of_statement()
                body = self.parse_statement_block(("end", "endif", "else", "elseif"))
                block.branches.append((cond, body))
                continue
            if self.accept("KEYWORD", "else"):
                self.expect_end_of_statement()
                block.else_body = self.parse_statement_block(("end", "endif"))
            break
        self._consume_block_end("if")
        return block

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def parse_expression(self, min_power: int = 0) -> Expr:
        """Precedence climbing: an operand, extended by every binary operator
        of :data:`_BINARY` that binds at least ``min_power``."""
        token = self.peek()
        if token.kind == "MINUS" or token.kind == "PLUS":
            self.advance()
            lhs = self.parse_expression(_SIGN)
            if token.kind == "MINUS":
                lhs = UnaryOp(op="-", operand=lhs, line=token.line)
        elif token.kind == "DOTOP" and token.value == ".not." and min_power <= _NOT:
            self.advance()
            lhs = UnaryOp(op=".not.", operand=self.parse_expression(_NOT), line=token.line)
        else:
            lhs = self._parse_primary()
        related = False
        while True:
            token = self.peek()
            binding = _BINARY.get(token.value if token.kind == "DOTOP" else token.kind)
            if binding is None or binding[1] < min_power:
                if token.value in (".eqv.", ".neqv."):  # lexed, never compiled
                    raise FortranSyntaxError(f"'{token.value}' is not supported", token)
                return lhs
            op, power = binding
            if power == _RELATION:
                if related:
                    raise FortranSyntaxError("relational operators do not chain", token)
                related = True
            self.advance()
            rhs = self.parse_expression(power if power == _POW else power + 1)
            lhs = BinaryOp(op=op, lhs=lhs, rhs=rhs, line=token.line)

    def _parse_primary(self) -> Expr:
        token = self.advance()
        kind = token.kind
        if kind == "LPAREN":
            expr = self.parse_expression()
            self.expect("RPAREN")
            return expr
        if kind == "INT":
            return IntLiteral(value=int(token.value.split("_")[0]), line=token.line)
        if kind == "REAL":
            # Every real literal is f64 (RealLiteral's default kind).
            text = token.value.split("_")[0].lower().replace("d", "e")
            return RealLiteral(value=float(text), line=token.line)
        if kind == "DOTOP" and token.value in (".true.", ".false."):
            return LogicalLiteral(value=token.value == ".true.", line=token.line)
        if kind == "IDENT" or kind == "KEYWORD":
            # Keywords like 'real' can appear as intrinsic conversions: real(x)
            if not self.check("LPAREN"):
                return VarRef(name=token.value, line=token.line)
            args = self._parse_list(self.parse_expression)
            if token.value in INTRINSICS:
                return IntrinsicCall(name=token.value, args=args, line=token.line)
            return VarRef(name=token.value, subscripts=args, line=token.line)
        if kind == "STRING":
            raise FortranSyntaxError("a string literal is not supported in an expression", token)
        raise FortranSyntaxError("unexpected token in expression", token)

    def _parse_var_ref(self) -> VarRef:
        token = self.expect("IDENT")
        subscripts = self._parse_list(self.parse_expression) if self.check("LPAREN") else []
        return VarRef(name=token.value, subscripts=subscripts, line=token.line)

def parse_source(source: str) -> SourceFile:
    """Parse Fortran source text into an AST."""
    return FortranParser(source).parse()


__all__ = ["FortranParser", "FortranSyntaxError", "parse_source", "INTRINSICS"]
