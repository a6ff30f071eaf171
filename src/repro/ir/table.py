"""Modules as a JSON op table: the form the artifact store persists.

* ``types`` / ``attrs`` — the module's distinct type and attribute spellings
  (``.print()`` text), each parsed once per decode by :class:`IRParser`, so
  the leaves keep the one grammar of the printed IR;
* ``hints`` — each SSA value's ``name_hint`` (or ``null``) by value id; ids
  count block arguments as their block opens and results as their op ends;
* ``op`` — ``[name, operand ids, result type ids, [[attr name, attr id], ...],
  regions]``, a region a list of blocks ``[[[value id, type id], ...], ops]``.

Decoding builds operations the way ``IRParser._build_operation`` does and
refuses what the text parser refuses: an unregistered op (:class:`TableError`)
and a leaf outside the types and attributes the compiler builds
(``ParseError``).  It also refuses an out-of-range id, a use before its
definition or a hint count that differs from the values defined
(:class:`TableError`) and any other shape (``TypeError`` / ``ValueError`` /
``KeyError``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from .attributes import Attribute
from .operation import OP_CLASSES, Block, Operation, Region
from .parser import IRParser, registered
from .ssa import SSAValue


class TableError(ValueError):
    """Raised on an op table that does not describe a module."""


def encode_module(module: Operation) -> Dict[str, Any]:
    """``module`` as an op table (JSON-ready: lists, strings, ints, null)."""
    types: Dict[str, int] = {}
    attrs: Dict[str, int] = {}
    ids: Dict[SSAValue, int] = {}
    hints: List[Any] = []

    def define(value: SSAValue) -> int:
        ids[value] = len(hints)
        hints.append(value.name_hint)
        return ids[value]

    def type_id(value: SSAValue) -> int:
        return types.setdefault(value.type.print(), len(types))

    def encode_block(block: Block) -> list:
        args = [[define(arg), type_id(arg)] for arg in block.args]
        return [args, [encode(child) for child in block._ops]]

    def encode(op: Operation) -> list:
        operands = [ids[value] for value in op._operands]
        regions = [[encode_block(block) for block in region.blocks]
                   for region in op.regions]
        for result in op.results:
            define(result)
        return [op.name, operands, [type_id(r) for r in op.results],
                [[key, attrs.setdefault(value.print(), len(attrs))]
                 for key, value in op.attributes.items()],
                regions]

    top = encode(module)
    return {"types": list(types), "attrs": list(attrs), "hints": hints, "op": top}


def _parse_leaf(spelling: str, parse: Callable[[IRParser], Attribute]) -> Attribute:
    parser = IRParser(spelling)
    leaf = parse(parser)
    if not parser.at_end():
        raise TableError(f"trailing input after the leaf in {spelling!r}")
    return leaf


def _at(items: list, index: Any, what: str):
    if type(index) is not int or not 0 <= index < len(items):
        raise TableError(f"{what} id {index!r} is out of range")
    return items[index]


def _pick(items: list, indices: list, what: str) -> list:
    """``items[i]`` for every id in ``indices``, each of which must be an
    ``int`` in range (a JSON ``true`` is not id 1)."""
    try:
        picked = [items[index] for index in indices
                  if type(index) is int and index >= 0]
        if len(picked) == len(indices):
            return picked
    except (IndexError, TypeError):
        pass
    raise TableError(f"{what} ids {indices!r} are not all in range")


def decode_module(table: Dict[str, Any]) -> Operation:
    """The operation ``table`` describes, built fresh."""
    types = [_parse_leaf(s, IRParser.parse_type) for s in table["types"]]
    attrs = [_parse_leaf(s, IRParser.parse_attribute) for s in table["attrs"]]
    hints = table["hints"]
    #: The values defined so far: an operand id past its end is used before
    #: its definition, or never defined.
    values: List[SSAValue] = []

    def build(entry: list) -> Operation:
        name, operand_ids, type_ids, attr_ids, region_entries = entry
        operands = _pick(values, operand_ids, "defined value")
        regions = []
        for block_entries in region_entries:
            region = Region()
            for arg_entries, op_entries in block_entries:
                block = Block()
                region.add_block(block)
                for index, type_index in arg_entries:
                    if index != len(values):
                        raise TableError(
                            f"block argument {index!r} is not value {len(values)}")
                    values.append(block.add_arg(_at(types, type_index, "type")))
                for child in op_entries:
                    block.add_op(build(child))
            regions.append(region)
        result_types = _pick(types, type_ids, "type")
        attributes = {key: _at(attrs, index, "attribute") for key, index in attr_ids}
        op_class = registered(OP_CLASSES, name)
        if op_class is None:
            raise TableError(f"unregistered operation {name!r}")
        op = object.__new__(op_class)
        Operation.__init__(op, operands, result_types, attributes, regions)
        values.extend(op.results)
        return op

    module = build(table["op"])
    if len(hints) != len(values):
        raise TableError(f"{len(hints)} name hints for {len(values)} values")
    for defined, hint in zip(values, hints):
        if hint is not None and type(hint) is not str:
            raise TableError(f"name hint {hint!r} is not a string")
        defined.name_hint = hint
    return module


__all__ = ["TableError", "encode_module", "decode_module"]
