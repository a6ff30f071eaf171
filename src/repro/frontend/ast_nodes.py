"""Abstract syntax tree for the Fortran subset.

Nodes are plain dataclasses; the FIR code generator consumes them directly.
Source line numbers are retained for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr:
    line: int = 0


@dataclass
class IntLiteral(Expr):
    value: int = 0


@dataclass
class RealLiteral(Expr):
    value: float = 0.0
    kind: int = 8  # bytes; 8 => f64, 4 => f32


@dataclass
class LogicalLiteral(Expr):
    value: bool = False


@dataclass
class VarRef(Expr):
    """A scalar variable reference or an array element reference."""

    name: str = ""
    subscripts: List[Expr] = field(default_factory=list)

    @property
    def is_array_ref(self) -> bool:
        return bool(self.subscripts)


@dataclass
class BinaryOp(Expr):
    op: str = "+"  # one of + - * / ** and relational/logical operators
    lhs: Expr = None
    rhs: Expr = None


@dataclass
class UnaryOp(Expr):
    op: str = "-"  # '-' or '.not.'
    operand: Expr = None


@dataclass
class IntrinsicCall(Expr):
    """A call to a recognised intrinsic (sqrt, abs, min, max, ...)."""

    name: str = ""
    args: List[Expr] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class DimSpec:
    """One array dimension: bounds default to 1:extent."""

    lower: Optional[Expr] = None  # None means the default lower bound of 1
    upper: Optional[Expr] = None  # None means assumed size / deferred

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lo = "1" if self.lower is None else "?"
        hi = "?" if self.upper is None else "?"
        return f"DimSpec({lo}:{hi})"


@dataclass
class EntityDecl:
    """One declared entity within a type declaration statement."""

    name: str = ""
    dims: List[DimSpec] = field(default_factory=list)
    init: Optional[Expr] = None
    line: int = 0


@dataclass
class Declaration:
    """A type declaration statement, e.g. ``real(kind=8), intent(inout) :: u(n, n)``."""

    base_type: str = "real"  # 'integer' | 'real' | 'logical' | 'double precision'
    kind: int = 4  # bytes
    attributes: List[str] = field(default_factory=list)  # parameter, allocatable, ...
    intent: Optional[str] = None
    entities: List[EntityDecl] = field(default_factory=list)
    line: int = 0


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Statement:
    line: int = 0


@dataclass
class Assignment(Statement):
    target: VarRef = None
    value: Expr = None


@dataclass
class DoLoop(Statement):
    var: str = ""
    start: Expr = None
    stop: Expr = None
    step: Optional[Expr] = None
    body: List[Statement] = field(default_factory=list)


@dataclass
class IfBlock(Statement):
    """if/else-if/else construct; branches hold (condition, body) pairs and the
    final else body (possibly empty) is stored separately."""

    branches: List[Tuple[Expr, List[Statement]]] = field(default_factory=list)
    else_body: List[Statement] = field(default_factory=list)


@dataclass
class CallStmt(Statement):
    name: str = ""
    args: List[Expr] = field(default_factory=list)


@dataclass
class AllocateStmt(Statement):
    allocations: List[VarRef] = field(default_factory=list)


@dataclass
class DeallocateStmt(Statement):
    names: List[str] = field(default_factory=list)


@dataclass
class ReturnStmt(Statement):
    pass


@dataclass
class PrintStmt(Statement):
    """A ``print``/``write`` line: parsed past, compiled to nothing."""


# ---------------------------------------------------------------------------
# Program units
# ---------------------------------------------------------------------------


@dataclass
class ProgramUnit:
    """A ``program`` or ``subroutine`` unit."""

    kind: str = "subroutine"  # 'program' | 'subroutine'
    name: str = ""
    args: List[str] = field(default_factory=list)
    declarations: List[Declaration] = field(default_factory=list)
    body: List[Statement] = field(default_factory=list)
    line: int = 0


@dataclass
class SourceFile:
    """A parsed source file: one or more program units."""

    units: List[ProgramUnit] = field(default_factory=list)

    def unit(self, name: str) -> ProgramUnit:
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(f"no program unit named '{name}'")


__all__ = [
    "Expr",
    "IntLiteral",
    "RealLiteral",
    "LogicalLiteral",
    "VarRef",
    "BinaryOp",
    "UnaryOp",
    "IntrinsicCall",
    "DimSpec",
    "EntityDecl",
    "Declaration",
    "Statement",
    "Assignment",
    "DoLoop",
    "IfBlock",
    "CallStmt",
    "AllocateStmt",
    "DeallocateStmt",
    "ReturnStmt",
    "PrintStmt",
    "ProgramUnit",
    "SourceFile",
]
