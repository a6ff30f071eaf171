"""The stencil dialect (Open Earth Compiler / xDSL).

Types:

* ``!stencil.field<[l0,u0]x[l1,u1]x...xT>`` — a named storage field with halo
  bounds, created from external memory (``stencil.external_load``).
* ``!stencil.temp<[l0,u0]x...xT>`` — a value-semantics snapshot of a field used
  as input/output of ``stencil.apply``.

Operations follow the paper's Listing 2: ``stencil.apply`` runs its body once
per output grid point, ``stencil.access`` reads a neighbouring cell at a
constant offset, ``stencil.return`` yields the computed value(s), and
``stencil.load`` / ``stencil.store`` / ``stencil.external_load`` connect
fields to memory.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from ..ir.attributes import DenseArrayAttr, IntegerAttr
from ..ir.context import Dialect
from ..ir.operation import Block, Operation, Region, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import IsTerminator, Pure, ReadOnly, SingleBlockRegion
from ..ir.types import TypeAttribute, i64, index


Bounds = Tuple[Tuple[int, int], ...]


def _normalise_bounds(bounds: Sequence[Sequence[int]]) -> Bounds:
    out: List[Tuple[int, int]] = []
    for b in bounds:
        lb, ub = int(b[0]), int(b[1])
        if ub < lb:
            raise ValueError(f"invalid stencil bound [{lb},{ub}]")
        out.append((lb, ub))
    return tuple(out)


class _BoundedType(TypeAttribute):
    """Shared implementation of field/temp types: per-dimension [lb, ub] bounds."""

    def __init__(self, bounds: Sequence[Sequence[int]], element_type: TypeAttribute):
        self.bounds: Bounds = _normalise_bounds(bounds)
        self.element_type = element_type

    @property
    def rank(self) -> int:
        return len(self.bounds)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Number of grid points covered in each dimension (ub - lb + 1... exclusive).

        Bounds follow the Open Earth convention: ``[lb, ub)`` half-open, so the
        extent is ``ub - lb``.
        """
        return tuple(ub - lb for lb, ub in self.bounds)

    def _key(self) -> Tuple[Any, ...]:
        return (self.bounds, self.element_type)

    def _print_body(self) -> str:
        dims = "x".join(f"[{lb},{ub}]" for lb, ub in self.bounds)
        return f"{dims}x{self.element_type.print()}"


class FieldType(_BoundedType):
    """``!stencil.field<...>`` — storage with halo, backed by external memory."""

    name = "stencil.field"

    def print(self) -> str:
        return f"!stencil.field<{self._print_body()}>"


class TempType(_BoundedType):
    """``!stencil.temp<...>`` — a value-semantics temporary over a sub-domain."""

    name = "stencil.temp"

    def print(self) -> str:
        return f"!stencil.temp<{self._print_body()}>"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


class ExternalLoadOp(Operation):
    """``stencil.external_load`` — view external memory (memref / fir ref /
    llvm_ptr) as a stencil field."""

    name = "stencil.external_load"
    traits = (ReadOnly,)

    def __init__(self, source: SSAValue, field_type: FieldType):
        super().__init__(operands=[source], result_types=[field_type])

    @property
    def source(self) -> SSAValue:
        return self.operands[0]

    @property
    def field(self) -> SSAValue:
        return self.results[0]

    @property
    def read_only(self) -> bool:
        """Whether nothing in this function writes the field: every use of
        it is a ``stencil.load`` — no store, no halo swap, no call."""
        return all(isinstance(use.operation, LoadOp) for use in self.results[0].uses)


class LoadOp(Operation):
    """``stencil.load`` — take a read-only temp snapshot of a field."""

    name = "stencil.load"
    traits = (ReadOnly,)

    def __init__(self, field: SSAValue, result_type: Optional[TempType] = None):
        if result_type is None:
            ftype = field.type
            if not isinstance(ftype, FieldType):
                raise TypeError("stencil.load expects a !stencil.field operand")
            result_type = TempType(ftype.bounds, ftype.element_type)
        super().__init__(operands=[field], result_types=[result_type])

    @property
    def field(self) -> SSAValue:
        return self.operands[0]

    @property
    def temp(self) -> SSAValue:
        return self.results[0]

    def verify_(self) -> None:
        if not isinstance(self.operands[0].type, FieldType):
            raise VerifyException("stencil.load: operand must be a !stencil.field")
        if not isinstance(self.results[0].type, TempType):
            raise VerifyException("stencil.load: result must be a !stencil.temp")


class ApplyOp(Operation):
    """``stencil.apply`` — execute the body once per grid point of the output
    domain ``[lb, ub)``.

    The body block receives one argument per operand (same types); operands
    are typically ``!stencil.temp`` values plus any scalars the computation
    needs.  The terminator is ``stencil.return``.
    """

    name = "stencil.apply"
    traits = (SingleBlockRegion,)

    def __init__(
        self,
        inputs: Sequence[SSAValue],
        lb: Sequence[int],
        ub: Sequence[int],
        result_types: Sequence[TypeAttribute],
        body: Optional[Region] = None,
    ):
        if body is None:
            body = Region([Block(arg_types=[v.type for v in inputs])])
        super().__init__(
            operands=inputs,
            result_types=result_types,
            regions=[body],
            attributes={
                "lb": DenseArrayAttr(lb),
                "ub": DenseArrayAttr(ub),
            },
        )

    @property
    def lb(self) -> Tuple[int, ...]:
        return self.get_attr("lb").as_tuple()  # type: ignore[union-attr]

    @property
    def ub(self) -> Tuple[int, ...]:
        return self.get_attr("ub").as_tuple()  # type: ignore[union-attr]

    @property
    def rank(self) -> int:
        return len(self.lb)

    @property
    def domain_shape(self) -> Tuple[int, ...]:
        return tuple(u - l for l, u in zip(self.lb, self.ub))

    def verify_(self) -> None:
        if len(self.lb) != len(self.ub):
            raise VerifyException("stencil.apply: lb and ub must have the same rank")
        block = self.body.block
        if len(block.args) != len(self.operands):
            raise VerifyException(
                "stencil.apply: body must have one argument per operand"
            )
        for arg, operand in zip(block.args, self.operands):
            if arg.type != operand.type:
                raise VerifyException(
                    "stencil.apply: body argument types must match operand types"
                )
        last = block.last_op
        if last is None or last.name != "stencil.return":
            raise VerifyException("stencil.apply: body must end with stencil.return")
        if len(last.operands) != len(self.results):
            raise VerifyException(
                "stencil.apply: stencil.return operand count must match results"
            )


class AccessOp(Operation):
    """``stencil.access`` — read the input temp at a constant offset from the
    current grid point."""

    name = "stencil.access"
    traits = (Pure,)

    def __init__(self, temp: SSAValue, offset: Sequence[int]):
        ttype = temp.type
        if not isinstance(ttype, TempType):
            raise TypeError("stencil.access expects a !stencil.temp operand")
        super().__init__(
            operands=[temp],
            result_types=[ttype.element_type],
            attributes={"offset": DenseArrayAttr(offset)},
        )

    @property
    def temp(self) -> SSAValue:
        return self.operands[0]

    @property
    def offset(self) -> Tuple[int, ...]:
        return self.get_attr("offset").as_tuple()  # type: ignore[union-attr]

    def verify_(self) -> None:
        ttype = self.operands[0].type
        if not isinstance(ttype, TempType):
            raise VerifyException("stencil.access: operand must be a !stencil.temp")
        if len(self.offset) != ttype.rank:
            raise VerifyException(
                f"stencil.access: offset rank {len(self.offset)} does not match "
                f"temp rank {ttype.rank}"
            )


class IndexOp(Operation):
    """``stencil.index`` — the current grid point's index along ``dim``."""

    name = "stencil.index"
    traits = (Pure,)

    def __init__(self, dim: int):
        super().__init__(result_types=[index], attributes={"dim": IntegerAttr(dim, i64)})

    @property
    def dim(self) -> int:
        return int(self.get_attr("dim").value)  # type: ignore[union-attr]


class StoreOp(Operation):
    """``stencil.store`` — write a computed temp into a field over ``[lb, ub)``."""

    name = "stencil.store"

    def __init__(self, temp: SSAValue, field: SSAValue, lb: Sequence[int], ub: Sequence[int]):
        super().__init__(
            operands=[temp, field],
            attributes={"lb": DenseArrayAttr(lb), "ub": DenseArrayAttr(ub)},
        )

    @property
    def temp(self) -> SSAValue:
        return self.operands[0]

    @property
    def field(self) -> SSAValue:
        return self.operands[1]

    @property
    def lb(self) -> Tuple[int, ...]:
        return self.get_attr("lb").as_tuple()  # type: ignore[union-attr]

    @property
    def ub(self) -> Tuple[int, ...]:
        return self.get_attr("ub").as_tuple()  # type: ignore[union-attr]

    def verify_(self) -> None:
        if not isinstance(self.operands[0].type, TempType):
            raise VerifyException("stencil.store: first operand must be a !stencil.temp")
        if not isinstance(self.operands[1].type, FieldType):
            raise VerifyException("stencil.store: second operand must be a !stencil.field")


class ReturnOp(Operation):
    """``stencil.return`` — yields the per-grid-point value(s) of an apply."""

    name = "stencil.return"
    traits = (IsTerminator,)

    def __init__(self, values: Sequence[SSAValue]):
        super().__init__(operands=values)


# ---------------------------------------------------------------------------
# Textual type parsers
# ---------------------------------------------------------------------------

def _parse_bounded_body(parser) -> Tuple[List[Tuple[int, int]], TypeAttribute]:
    parser.expect("<")
    bounds: List[Tuple[int, int]] = []
    while parser.try_consume("["):
        lower = parser.parse_integer()
        parser.expect(",")
        bounds.append((lower, parser.parse_integer()))
        parser.expect("]x")
    elem = parser.parse_type()
    parser.expect(">")
    return bounds, elem


def _parse_field(parser) -> FieldType:
    bounds, elem = _parse_bounded_body(parser)
    return FieldType(bounds, elem)


def _parse_temp(parser) -> TempType:
    bounds, elem = _parse_bounded_body(parser)
    return TempType(bounds, elem)


Stencil = Dialect(
    "stencil",
    [
        ExternalLoadOp,
        LoadOp,
        ApplyOp,
        AccessOp,
        IndexOp,
        StoreOp,
        ReturnOp,
    ],
    type_parsers={"field": _parse_field, "temp": _parse_temp},
)

__all__ = [
    "FieldType",
    "TempType",
    "ExternalLoadOp",
    "LoadOp",
    "ApplyOp",
    "AccessOp",
    "IndexOp",
    "StoreOp",
    "ReturnOp",
    "Stencil",
]
