"""Attribute system for the IR.

Attributes are immutable, uniqued-by-value pieces of compile-time data attached
to operations (and, for :class:`TypeAttribute` subclasses, to SSA values).  The
design mirrors MLIR/xDSL: every attribute knows how to print itself in the
generic textual syntax and compares structurally.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple


class Attribute:
    """Base class of all attributes.

    Attributes are immutable value objects: equality and hashing are structural,
    based on :meth:`_key`.
    """

    #: Dialect-qualified name used by the printer/parser, e.g. ``"arith.fastmath"``.
    name: str = "attribute"

    def _key(self) -> Tuple[Any, ...]:
        raise NotImplementedError(
            f"{type(self).__name__} must implement _key() for structural equality"
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self._key()})"

    def print(self) -> str:
        """Return the textual form of this attribute (generic syntax)."""
        raise NotImplementedError(type(self).__name__)


class TypeAttribute(Attribute):
    """Marker base class: attributes that can be used as SSA value types."""


# ---------------------------------------------------------------------------
# Scalar / builtin attributes
# ---------------------------------------------------------------------------


class UnitAttr(Attribute):
    """A valueless attribute whose presence alone conveys information."""

    name = "unit"

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def print(self) -> str:
        return "unit"


class StringAttr(Attribute):
    """A string constant."""

    name = "string"

    def __init__(self, data: str):
        if not isinstance(data, str):
            raise TypeError(f"StringAttr expects str, got {type(data).__name__}")
        self.data = data

    def _key(self) -> Tuple[Any, ...]:
        return (self.data,)

    def print(self) -> str:
        escaped = self.data.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'


class IntegerAttr(Attribute):
    """An integer constant carrying its type (width)."""

    name = "integer"

    def __init__(self, value: int, type: "TypeAttribute"):
        self.value = int(value)
        self.type = type

    def _key(self) -> Tuple[Any, ...]:
        return (self.value, self.type)

    def print(self) -> str:
        return f"{self.value} : {self.type.print()}"

    @staticmethod
    def from_int(value: int, width: int = 64) -> "IntegerAttr":
        from .types import IntegerType

        return IntegerAttr(value, IntegerType(width))

class FloatAttr(Attribute):
    """A floating point constant carrying its type."""

    name = "float"

    def __init__(self, value: float, type: "TypeAttribute"):
        self.value = float(value)
        self.type = type

    def _key(self) -> Tuple[Any, ...]:
        return (self.value, self.type)

    def print(self) -> str:
        return f"{self.value!r} : {self.type.print()}"

    @staticmethod
    def from_float(value: float, width: int = 64) -> "FloatAttr":
        from .types import FloatType

        return FloatAttr(value, FloatType(width))


class DenseArrayAttr(Attribute):
    """A flat list of integers (used e.g. for stencil bounds / offsets)."""

    name = "dense_array"

    def __init__(self, values: Iterable[int]):
        self.values: Tuple[int, ...] = tuple(int(v) for v in values)

    def __getitem__(self, idx: int) -> int:
        return self.values[idx]

    def as_tuple(self) -> Tuple[int, ...]:
        return self.values

    def _key(self) -> Tuple[Any, ...]:
        return (self.values,)

    def print(self) -> str:
        return "array<i64: " + ", ".join(str(v) for v in self.values) + ">"


class SymbolRefAttr(Attribute):
    """A reference to a symbol (e.g. a function) by name."""

    name = "symbol_ref"

    def __init__(self, root: str, nested: Sequence[str] = ()):
        self.root = root
        self.nested: Tuple[str, ...] = tuple(nested)

    def _key(self) -> Tuple[Any, ...]:
        return (self.root, self.nested)

    def print(self) -> str:
        out = f"@{self.root}"
        for part in self.nested:
            out += f"::@{part}"
        return out


class TypeAttr(Attribute):
    """Wraps a type so it can be stored in an attribute dictionary."""

    name = "type"

    def __init__(self, type: TypeAttribute):
        if not isinstance(type, TypeAttribute):
            raise TypeError("TypeAttr expects a TypeAttribute")
        self.type = type

    def _key(self) -> Tuple[Any, ...]:
        return (self.type,)

    def print(self) -> str:
        return self.type.print()


__all__ = [
    "Attribute",
    "TypeAttribute",
    "UnitAttr",
    "StringAttr",
    "IntegerAttr",
    "FloatAttr",
    "DenseArrayAttr",
    "SymbolRefAttr",
    "TypeAttr",
]
