"""Semantic analysis: symbol tables and compile-time constant evaluation.

The FIR generator needs to know, for every name, whether it is a scalar or an
array, its element type, its declared bounds and whether it is a dummy
argument, a ``parameter`` constant or an ``allocatable``.  Array extents that
are constant expressions (literals and ``parameter`` names) are folded here so
that static FIR array types can be produced, matching what Flang does for
constant-shaped local arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .ast_nodes import (
    BinaryOp,
    Declaration,
    DimSpec,
    Expr,
    IntLiteral,
    IntrinsicCall,
    ProgramUnit,
    RealLiteral,
    UnaryOp,
    VarRef,
)


class SemanticError(Exception):
    """Raised for programs that are syntactically valid but not analysable."""


@dataclass
class DimInfo:
    """Resolved bounds of one array dimension.

    ``lower``/``upper`` are ints when constant; ``None`` marks a bound that is
    only known at run time (deferred or dummy-argument dependent).
    """

    lower: Optional[int] = 1
    upper: Optional[int] = None
    lower_expr: Optional[Expr] = None
    upper_expr: Optional[Expr] = None

    @property
    def extent(self) -> Optional[int]:
        if self.lower is None or self.upper is None:
            return None
        return self.upper - self.lower + 1


@dataclass
class Symbol:
    """Everything known about one declared name."""

    name: str
    base_type: str = "real"  # 'integer' | 'real' | 'logical'
    kind: int = 4
    dims: List[DimInfo] = field(default_factory=list)
    is_parameter: bool = False
    is_dummy: bool = False
    is_allocatable: bool = False
    intent: Optional[str] = None
    parameter_value: Optional[Union[int, float]] = None

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)

    def static_shape(self) -> Optional[Tuple[int, ...]]:
        """Shape tuple if every extent is compile-time constant, else None."""
        extents = []
        for dim in self.dims:
            if dim.extent is None:
                return None
            extents.append(dim.extent)
        return tuple(extents)


class SymbolTable:
    """Per-program-unit symbol table."""

    def __init__(self, unit: ProgramUnit):
        self.unit = unit
        self.symbols: Dict[str, Symbol] = {}
        self._build()

    # ------------------------------------------------------------------

    def __getitem__(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise SemanticError(
                f"'{name}' is not declared in unit '{self.unit.name}' "
                "(the frontend requires 'implicit none' style explicit declarations)"
            ) from None

    def values(self):
        return self.symbols.values()

    # ------------------------------------------------------------------

    def _build(self) -> None:
        for decl in self.unit.declarations:
            self._add_declaration(decl)
        for arg in self.unit.args:
            if arg not in self.symbols:
                raise SemanticError(
                    f"dummy argument '{arg}' of '{self.unit.name}' has no declaration"
                )
            self.symbols[arg].is_dummy = True

    def _add_declaration(self, decl: Declaration) -> None:
        base_type = decl.base_type
        kind = decl.kind
        if base_type == "real" and kind not in (4, 8):
            kind = 8
        for entity in decl.entities:
            symbol = Symbol(
                name=entity.name,
                base_type=base_type,
                kind=kind,
                is_parameter="parameter" in decl.attributes,
                is_allocatable="allocatable" in decl.attributes,
                intent=decl.intent,
            )
            if symbol.is_parameter:
                if entity.init is None:
                    raise SemanticError(
                        f"parameter '{entity.name}' must have an initialiser"
                    )
                symbol.parameter_value = self.evaluate_constant(entity.init)
            self.symbols[entity.name] = symbol
            # Dims may reference parameters declared earlier, so resolve after
            # the symbol exists (self-reference is not allowed).
            symbol.dims = [self._resolve_dim(d) for d in entity.dims]

    def _resolve_dim(self, spec: DimSpec) -> DimInfo:
        info = DimInfo()
        if spec.lower is None:
            info.lower = 1
        else:
            info.lower_expr = spec.lower
            info.lower = self.try_evaluate_constant(spec.lower)
        if spec.upper is None:
            info.upper = None
            info.upper_expr = None
        else:
            info.upper_expr = spec.upper
            info.upper = self.try_evaluate_constant(spec.upper)
        return info

    # ------------------------------------------------------------------
    # Constant expression evaluation
    # ------------------------------------------------------------------

    def try_evaluate_constant(self, expr: Expr) -> Optional[Union[int, float]]:
        try:
            return self.evaluate_constant(expr)
        except SemanticError:
            return None

    def evaluate_constant(self, expr: Expr) -> Union[int, float]:
        """Evaluate an expression built from literals and parameter names."""
        if isinstance(expr, IntLiteral):
            return expr.value
        if isinstance(expr, RealLiteral):
            return expr.value
        if isinstance(expr, VarRef) and not expr.subscripts:
            symbol = self.symbols.get(expr.name)
            if symbol is not None and symbol.is_parameter:
                return symbol.parameter_value  # type: ignore[return-value]
            raise SemanticError(f"'{expr.name}' is not a constant")
        if isinstance(expr, UnaryOp):
            value = self.evaluate_constant(expr.operand)
            if expr.op == "-":
                return -value
            raise SemanticError(f"unsupported constant unary operator '{expr.op}'")
        if isinstance(expr, BinaryOp):
            lhs = self.evaluate_constant(expr.lhs)
            rhs = self.evaluate_constant(expr.rhs)
            if expr.op == "+":
                return lhs + rhs
            if expr.op == "-":
                return lhs - rhs
            if expr.op == "*":
                return lhs * rhs
            if expr.op == "/":
                if isinstance(lhs, int) and isinstance(rhs, int):
                    return lhs // rhs
                return lhs / rhs
            if expr.op == "**":
                return lhs**rhs
            raise SemanticError(f"unsupported constant operator '{expr.op}'")
        if isinstance(expr, IntrinsicCall):
            args = [self.evaluate_constant(a) for a in expr.args]
            if expr.name == "max":
                return max(args)
            if expr.name == "min":
                return min(args)
            raise SemanticError(f"unsupported constant intrinsic '{expr.name}'")
        raise SemanticError("expression is not a compile-time constant")


__all__ = ["SymbolTable", "Symbol", "DimInfo", "SemanticError"]
