"""Builtin type attributes.

These are the core types shared across dialects: integers, floats, index,
function types and memrefs.  Dialect-specific types (FIR references, stencil
fields, ...) live with their dialects but follow the same conventions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .attributes import TypeAttribute

#: Sentinel used in shaped types for a dynamic (unknown at compile time) extent.
DYNAMIC = -1

#: ``"dialect.mnemonic"`` -> the function reading the rest of a
#: ``!dialect.mnemonic<...>`` type from an ``IRParser``; each dialect module
#: adds the types it defines.
TYPE_PARSERS: Dict[str, Callable[[Any], TypeAttribute]] = {}


class IntegerType(TypeAttribute):
    """An integer type of a given bit width, e.g. ``i32``."""

    name = "builtin.integer_type"

    def __init__(self, width: int):
        self.width = int(width)

    def _key(self) -> Tuple[Any, ...]:
        return (self.width,)

    def print(self) -> str:
        return f"i{self.width}"


class IndexType(TypeAttribute):
    """The platform-sized index type used for loop bounds and subscripts."""

    name = "builtin.index_type"

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def print(self) -> str:
        return "index"


class FloatType(TypeAttribute):
    """An IEEE float type of width 16, 32 or 64."""

    name = "builtin.float_type"

    def __init__(self, width: int):
        if width not in (16, 32, 64):
            raise ValueError(f"unsupported float width {width}")
        self.width = int(width)

    def _key(self) -> Tuple[Any, ...]:
        return (self.width,)

    def print(self) -> str:
        return f"f{self.width}"


class FunctionType(TypeAttribute):
    """A function signature ``(inputs) -> (results)``."""

    name = "builtin.function_type"

    def __init__(self, inputs: Sequence[TypeAttribute], results: Sequence[TypeAttribute]):
        self.inputs: Tuple[TypeAttribute, ...] = tuple(inputs)
        self.results: Tuple[TypeAttribute, ...] = tuple(results)

    def _key(self) -> Tuple[Any, ...]:
        return (self.inputs, self.results)

    def print(self) -> str:
        ins = ", ".join(t.print() for t in self.inputs)
        if len(self.results) == 1:
            outs = self.results[0].print()
        else:
            outs = "(" + ", ".join(t.print() for t in self.results) + ")"
        return f"({ins}) -> {outs}"


class MemRefType(TypeAttribute):
    """A shaped buffer type, e.g. ``memref<256x256xf64>``.

    ``shape`` entries may be :data:`DYNAMIC` for runtime-determined extents
    (printed as ``?``).
    """

    name = "builtin.memref_type"

    def __init__(self, shape: Sequence[int], element_type: TypeAttribute):
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.element_type = element_type

    @property
    def rank(self) -> int:
        return len(self.shape)

    def has_static_shape(self) -> bool:
        return all(s != DYNAMIC for s in self.shape)

    def num_elements(self) -> Optional[int]:
        if not self.has_static_shape():
            return None
        total = 1
        for s in self.shape:
            total *= s
        return total

    def _key(self) -> Tuple[Any, ...]:
        return (self.shape, self.element_type)

    def print(self) -> str:
        dims = "x".join("?" if s == DYNAMIC else str(s) for s in self.shape)
        if dims:
            return f"memref<{dims}x{self.element_type.print()}>"
        return f"memref<{self.element_type.print()}>"


# Convenience singletons -----------------------------------------------------

i1 = IntegerType(1)
i32 = IntegerType(32)
i64 = IntegerType(64)
f32 = FloatType(32)
f64 = FloatType(64)
index = IndexType()


__all__ = [
    "DYNAMIC",
    "IntegerType",
    "IndexType",
    "FloatType",
    "FunctionType",
    "MemRefType",
    "i1",
    "i32",
    "i64",
    "f32",
    "f64",
    "index",
    "TYPE_PARSERS",
]
