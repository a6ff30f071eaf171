"""Recursive-descent parser for the Fortran subset.

Supports the constructs the paper's benchmarks rely on: program/subroutine
units, ``implicit none``, type declarations with kinds, ``parameter``,
``dimension``, ``intent`` and ``allocatable`` attributes, counted ``do`` loops
(with optional stride), ``do while``, block and single-line ``if``,
assignments over scalar and array references, arithmetic/relational/logical
expressions, intrinsic calls and ``call`` statements.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .ast_nodes import (
    AllocateStmt,
    Assignment,
    BinaryOp,
    CallStmt,
    CycleStmt,
    DeallocateStmt,
    Declaration,
    DimSpec,
    DoLoop,
    DoWhile,
    EntityDecl,
    ExitStmt,
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
    StringLiteral,
    UnaryOp,
    VarRef,
)
from .lexer import Token, tokenize

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
            args = self._parse_dummy_args()
            self.expect_end_of_statement()
            unit = ProgramUnit(kind="subroutine", name=name, args=args, line=token.line)
        elif self.accept("KEYWORD", "function"):
            name = self.expect("IDENT").value
            args = self._parse_dummy_args()
            result_name = name
            if self.accept("KEYWORD", "result"):
                self.expect("LPAREN")
                result_name = self.expect("IDENT").value
                self.expect("RPAREN")
            self.expect_end_of_statement()
            unit = ProgramUnit(
                kind="function", name=name, args=args, result_name=result_name,
                line=token.line,
            )
        else:
            raise FortranSyntaxError(
                "expected 'program', 'subroutine' or 'function'", token
            )

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

    def _parse_dummy_args(self) -> List[str]:
        args: List[str] = []
        if self.accept("LPAREN"):
            if not self.check("RPAREN"):
                args.append(self.expect("IDENT").value)
                while self.accept("COMMA"):
                    args.append(self.expect("IDENT").value)
            self.expect("RPAREN")
        return args

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
            if base == "real":
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
                self.expect("LPAREN")
                dims = self._parse_dim_list()
                self.expect("RPAREN")
                decl.attributes.append("dimension")
                decl.default_dims = dims  # type: ignore[attr-defined]
            else:
                raise FortranSyntaxError("unsupported declaration attribute", self.peek())

        self.expect("DCOLON")

        while True:
            entity = EntityDecl(line=self.peek().line)
            entity.name = self.expect("IDENT").value
            if self.accept("LPAREN"):
                entity.dims = self._parse_dim_list()
                self.expect("RPAREN")
            elif getattr(decl, "default_dims", None):
                entity.dims = list(decl.default_dims)  # type: ignore[attr-defined]
            if self.accept("ASSIGN"):
                entity.init = self.parse_expression()
            decl.entities.append(entity)
            if not self.accept("COMMA"):
                break
        self.expect_end_of_statement()
        return decl

    def _parse_dim_list(self) -> List[DimSpec]:
        dims = [self._parse_dim_spec()]
        while self.accept("COMMA"):
            dims.append(self._parse_dim_spec())
        return dims

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
            args: List[Expr] = []
            if self.accept("LPAREN"):
                if not self.check("RPAREN"):
                    args.append(self.parse_expression())
                    while self.accept("COMMA"):
                        args.append(self.parse_expression())
                self.expect("RPAREN")
            self.expect_end_of_statement()
            return CallStmt(name=name, args=args, line=token.line)
        if self.accept("KEYWORD", "return"):
            self.expect_end_of_statement()
            return ReturnStmt(line=token.line)
        if self.accept("KEYWORD", "exit"):
            self.expect_end_of_statement()
            return ExitStmt(line=token.line)
        if self.accept("KEYWORD", "cycle"):
            self.expect_end_of_statement()
            return CycleStmt(line=token.line)
        if self.accept("KEYWORD", "stop"):
            while not self.check("NEWLINE") and not self.check("EOF"):
                self.advance()
            self.expect_end_of_statement()
            return ReturnStmt(line=token.line)
        if self.accept("KEYWORD", "allocate"):
            self.expect("LPAREN")
            allocs = [self._parse_var_ref()]
            while self.accept("COMMA"):
                allocs.append(self._parse_var_ref())
            self.expect("RPAREN")
            self.expect_end_of_statement()
            return AllocateStmt(allocations=allocs, line=token.line)
        if self.accept("KEYWORD", "deallocate"):
            self.expect("LPAREN")
            names = [self.expect("IDENT").value]
            while self.accept("COMMA"):
                names.append(self.expect("IDENT").value)
            self.expect("RPAREN")
            self.expect_end_of_statement()
            return DeallocateStmt(names=names, line=token.line)
        if self.accept("KEYWORD", "print") or self.accept("KEYWORD", "write"):
            # Consume the rest of the line; output statements have no effect on
            # the numerical kernels this frontend targets.
            args: List[Expr] = []
            while not self.check("NEWLINE") and not self.check("EOF"):
                self.advance()
            self.expect_end_of_statement()
            return PrintStmt(args=args, line=token.line)
        # Fallback: assignment
        return self.parse_assignment()

    def parse_assignment(self) -> Assignment:
        token = self.peek()
        target = self._parse_var_ref()
        self.expect("ASSIGN")
        value = self.parse_expression()
        self.expect_end_of_statement()
        return Assignment(target=target, value=value, line=token.line)

    def parse_do(self) -> Statement:
        token = self.expect("KEYWORD", "do")
        if self.accept("KEYWORD", "while"):
            self.expect("LPAREN")
            condition = self.parse_expression()
            self.expect("RPAREN")
            self.expect_end_of_statement()
            body = self.parse_statement_block(("end", "enddo"))
            self._consume_block_end("do")
            return DoWhile(condition=condition, body=body, line=token.line)
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

    def parse_expression(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        expr = self._parse_and()
        while self.check("DOTOP", ".or."):
            line = self.advance().line
            rhs = self._parse_and()
            expr = BinaryOp(op=".or.", lhs=expr, rhs=rhs, line=line)
        return expr

    def _parse_and(self) -> Expr:
        expr = self._parse_not()
        while self.check("DOTOP", ".and."):
            line = self.advance().line
            rhs = self._parse_not()
            expr = BinaryOp(op=".and.", lhs=expr, rhs=rhs, line=line)
        return expr

    def _parse_not(self) -> Expr:
        if self.check("DOTOP", ".not."):
            line = self.advance().line
            return UnaryOp(op=".not.", operand=self._parse_not(), line=line)
        return self._parse_comparison()

    _REL_TOKENS = {
        "LT": "<",
        "LE": "<=",
        "GT": ">",
        "GE": ">=",
        "EQ": "==",
        "NE": "/=",
    }
    _REL_DOTOPS = {
        ".lt.": "<",
        ".le.": "<=",
        ".gt.": ">",
        ".ge.": ">=",
        ".eq.": "==",
        ".ne.": "/=",
    }

    def _parse_comparison(self) -> Expr:
        expr = self._parse_additive()
        token = self.peek()
        op: Optional[str] = None
        if token.kind in self._REL_TOKENS:
            op = self._REL_TOKENS[token.kind]
        elif token.kind == "DOTOP" and token.value in self._REL_DOTOPS:
            op = self._REL_DOTOPS[token.value]
        if op is not None:
            line = self.advance().line
            rhs = self._parse_additive()
            return BinaryOp(op=op, lhs=expr, rhs=rhs, line=line)
        return expr

    def _parse_additive(self) -> Expr:
        expr = self._parse_multiplicative()
        while self.check("PLUS") or self.check("MINUS"):
            token = self.advance()
            rhs = self._parse_multiplicative()
            op = "+" if token.kind == "PLUS" else "-"
            expr = BinaryOp(op=op, lhs=expr, rhs=rhs, line=token.line)
        return expr

    def _parse_multiplicative(self) -> Expr:
        expr = self._parse_unary()
        while self.check("STAR") or self.check("SLASH"):
            token = self.advance()
            rhs = self._parse_unary()
            op = "*" if token.kind == "STAR" else "/"
            expr = BinaryOp(op=op, lhs=expr, rhs=rhs, line=token.line)
        return expr

    def _parse_unary(self) -> Expr:
        if self.check("MINUS"):
            token = self.advance()
            return UnaryOp(op="-", operand=self._parse_unary(), line=token.line)
        if self.check("PLUS"):
            self.advance()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self) -> Expr:
        base = self._parse_primary()
        if self.check("POW"):
            token = self.advance()
            # ** is right associative
            exponent = self._parse_unary()
            return BinaryOp(op="**", lhs=base, rhs=exponent, line=token.line)
        return base

    def _parse_primary(self) -> Expr:
        token = self.peek()
        if self.accept("LPAREN"):
            expr = self.parse_expression()
            self.expect("RPAREN")
            return expr
        if token.kind == "INT":
            self.advance()
            return IntLiteral(value=int(token.value.split("_")[0]), line=token.line)
        if token.kind == "REAL":
            self.advance()
            text = token.value.split("_")[0]
            kind = 8 if ("d" in text.lower()) else 8  # default reals to f64 precision
            normalised = text.lower().replace("d", "e")
            return RealLiteral(value=float(normalised), kind=kind, line=token.line)
        if token.kind == "DOTOP" and token.value in (".true.", ".false."):
            self.advance()
            return LogicalLiteral(value=token.value == ".true.", line=token.line)
        if token.kind == "STRING":
            self.advance()
            return StringLiteral(value=token.value[1:-1], line=token.line)
        if token.kind == "IDENT" or token.kind == "KEYWORD":
            # Keywords like 'real' can appear as intrinsic conversions: real(x)
            name = self.advance().value
            if self.check("LPAREN"):
                self.advance()
                args: List[Expr] = []
                if not self.check("RPAREN"):
                    args.append(self.parse_expression())
                    while self.accept("COMMA"):
                        args.append(self.parse_expression())
                self.expect("RPAREN")
                if name in INTRINSICS:
                    return IntrinsicCall(name=name, args=args, line=token.line)
                return VarRef(name=name, subscripts=args, line=token.line)
            return VarRef(name=name, line=token.line)
        raise FortranSyntaxError("unexpected token in expression", token)

    def _parse_var_ref(self) -> VarRef:
        token = self.expect("IDENT")
        ref = VarRef(name=token.value, line=token.line)
        if self.accept("LPAREN"):
            if not self.check("RPAREN"):
                ref.subscripts.append(self.parse_expression())
                while self.accept("COMMA"):
                    ref.subscripts.append(self.parse_expression())
            self.expect("RPAREN")
        return ref


def parse_source(source: str) -> SourceFile:
    """Parse Fortran source text into an AST."""
    return FortranParser(source).parse()


__all__ = ["FortranParser", "FortranSyntaxError", "parse_source", "INTRINSICS"]
