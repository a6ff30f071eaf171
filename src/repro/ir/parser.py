"""Textual IR parser for the generic operation syntax emitted by the printer.

The text is lexed **once**, by one compiled master pattern (``_TOKEN_RE``):
``findall`` turns it into a list of token strings and the recursive-descent
parser below only ever compares and consumes whole tokens.  Token offsets are
not kept; the error path re-lexes to turn a token index into line / column.

Each :class:`IRParser` shares one instance per type spelling (``_types``,
private to that parse).  Types are immutable value objects compared through
``_key()`` (the compile path already shares instances), so sharing changes no
result — it only makes the use-site ``value.type != expected`` check an
identity test.

It accepts the output of :mod:`repro.ir.printer` (round-trip stable) as well
as modestly hand-written generic-syntax IR used in tests and by humans.  Its
grammar is the IR the compiler builds: registered operations only, and only
the type and attribute leaves some compile constructs (the census in
``tests/ir/test_op_census.py``).  The artifact store does not read text: it
persists op tables (:mod:`repro.ir.table`), whose type and attribute
spellings this parser reads one leaf at a time, so both decoders refuse the
same things.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

from .attributes import (
    Attribute,
    DenseArrayAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    UnitAttr,
)
from .operation import OP_CLASSES, Block, Operation, Region
from .ssa import SSAValue
from .types import (
    DYNAMIC,
    TYPE_PARSERS,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    TypeAttribute,
)


class ParseError(Exception):
    """Raised on malformed textual IR, with line/column context."""

    def __init__(self, message: str, text: str = "", pos: int = 0):
        if text:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            snippet = text[max(0, pos - 30) : pos + 30].replace("\n", "\\n")
            message = f"{message} (line {line}, column {col}, near '...{snippet}...')"
        super().__init__(message)


_NUMBER = r"-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|inf|nan)"
_TOKEN_RE = re.compile(
    r"\s*(?://[^\n]*(?:\n\s*|\Z))*("  # whitespace and comments separate tokens
    r'"(?:[^"\\]|\\[\s\S])*"'  # string literal
    r"|[%@^][A-Za-z0-9_.$\-]*"  # value id, symbol, block label
    r"|![A-Za-z_][A-Za-z0-9_]*\.[A-Za-z_][A-Za-z0-9_]*"  # dialect type head
    r"|[A-Za-z_][A-Za-z0-9_.$\-]*"  # identifier / keyword
    r"|(?:(?:\?|\d+)x)+"  # shape extents "64x?x"
    rf"|{_NUMBER}|->|::|\]x"
    # anything else one character at a time; the empty token closes the input
    # (and, as lexing never fails, there is nothing to backtrack over)
    r"|\S|\Z)"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.$\-]*")
_NUMBER_RE = re.compile(_NUMBER)
_INT_RE = re.compile(r"-?\d+")
_DIMS_RE = re.compile(r"(?:(?:\?|\d+)x)+")
_INT_TYPE_RE = re.compile(r"i\d+")
_FLOAT_TYPE_RE = re.compile(r"f(16|32|64)")
_ESCAPE_RE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r"}


def registered(table: Dict[str, Any], name: str) -> Optional[Any]:
    """``name``'s entry in :data:`OP_CLASSES` or :data:`TYPE_PARSERS`, or
    ``None``.  A miss first imports :mod:`repro.dialects`, whose modules fill
    both tables as they define their ops and types."""
    found = table.get(name)
    if found is None:
        from .. import dialects  # noqa: F401

        found = table.get(name)
    return found


def _token_start(text: str, index: int) -> int:
    """Offset of the ``index``-th token lexed from ``text``."""
    match = next(islice(_TOKEN_RE.finditer(text), index, None), None)
    return len(text) if match is None else match.start(1)


class IRParser:
    """Parses generic-syntax IR into operation objects."""

    def __init__(self, text: str):
        self.text = text
        #: Token strings, closed by the empty end-of-input token.
        self.toks: List[str] = _TOKEN_RE.findall(text)
        self.i = 0
        self.values: Dict[str, SSAValue] = {}
        self._types: Dict[str, TypeAttribute] = {}

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _error(self, message: str) -> ParseError:
        # Token offsets are not kept while parsing: re-lex to find this one.
        return ParseError(message, self.text, _token_start(self.text, self.i))

    def at_end(self) -> bool:
        return not self.toks[self.i]

    def peek(self, literal: str) -> bool:
        return self.toks[self.i] == literal

    def try_consume(self, literal: str) -> bool:
        if self.toks[self.i] == literal:
            self.i += 1
            return True
        return False

    def expect(self, literal: str) -> None:
        if self.toks[self.i] != literal:
            raise self._error(f"expected '{literal}'")
        self.i += 1

    def parse_ident(self) -> str:
        tok = self.toks[self.i]
        if not _IDENT_RE.fullmatch(tok):
            raise self._error("expected identifier")
        self.i += 1
        return tok

    def parse_string_literal(self) -> str:
        tok = self.toks[self.i]
        if tok[:1] != '"':
            raise self._error("expected string literal")
        if len(tok) < 2:  # the lexer found no closing quote
            raise self._error("unterminated string literal")
        self.i += 1
        body = tok[1:-1]
        if "\\" in body:
            body = _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m.group(1), m.group(1)), body)
        return body

    def parse_integer(self) -> int:
        tok = self.toks[self.i]
        if not _INT_RE.fullmatch(tok):
            raise self._error("expected integer")
        self.i += 1
        return int(tok)

    def _parse_sigil_name(self, sigil: str) -> str:
        """A ``%value`` / ``@symbol`` token, returned without its sigil."""
        tok = self.toks[self.i]
        if tok[:1] != sigil or len(tok) < 2:
            raise self._error(f"expected a name after '{sigil}'")
        self.i += 1
        return tok[1:]

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def parse_type(self) -> TypeAttribute:
        toks, start = self.toks, self.i
        tok = toks[start]
        shared = self._types.get(tok)
        # A one-token spelling followed by '<' may open a longer one (!llvm.ptr).
        if shared is not None and toks[start + 1] != "<":
            self.i = start + 1
            return shared
        if tok == "(":
            built: TypeAttribute = FunctionType(*self._parse_functional_type())
        elif tok[:1] == "!":
            built = self._parse_dialect_type(tok)
        else:
            self.i += 1
            if tok == "index":
                built = IndexType()
            elif tok == "memref":
                built = MemRefType(*self._parse_shaped_body())
            elif _INT_TYPE_RE.fullmatch(tok):
                built = IntegerType(int(tok[1:]))
            elif _FLOAT_TYPE_RE.fullmatch(tok):
                built = FloatType(int(tok[1:]))
            else:
                self.i = start
                known = _IDENT_RE.fullmatch(tok)
                raise self._error(f"unknown type '{tok}'" if known else "expected a type")
        return self._types.setdefault(" ".join(toks[start : self.i]), built)

    def _parse_dims(self) -> List[int]:
        """Zero or more extents-with-``x`` (``64x?x``); ``?`` is :data:`DYNAMIC`."""
        shape: List[int] = []
        while _DIMS_RE.fullmatch(self.toks[self.i]):
            for dim in self.toks[self.i][:-1].split("x"):
                shape.append(DYNAMIC if dim == "?" else int(dim))
            self.i += 1
        return shape

    def _parse_shaped_body(self) -> Tuple[List[int], TypeAttribute]:
        self.expect("<")
        shape = self._parse_dims()
        elem = self.parse_type()
        self.expect(">")
        return shape, elem

    def _parse_functional_type(self) -> Tuple[List[TypeAttribute], List[TypeAttribute]]:
        """``(inputs) -> (results)`` or ``(inputs) -> result``."""
        inputs = self.parse_type_list()
        self.expect("->")
        if self.peek("("):
            return inputs, self.parse_type_list()
        return inputs, [self.parse_type()]

    def _parse_dialect_type(self, tok: str) -> TypeAttribute:
        if "." not in tok:
            raise self._error("expected '!dialect.mnemonic'")
        parser_fn = registered(TYPE_PARSERS, tok[1:])
        if parser_fn is None:
            raise self._error(f"unknown dialect type '{tok}'")
        self.i += 1
        try:
            return parser_fn(self)
        except ValueError as exc:  # a type constructor rejected its parameters
            raise self._error(str(exc)) from None

    def parse_type_list(self) -> List[TypeAttribute]:
        self.expect("(")
        types: List[TypeAttribute] = []
        if not self.try_consume(")"):
            types.append(self.parse_type())
            while self.try_consume(","):
                types.append(self.parse_type())
            self.expect(")")
        return types

    # ------------------------------------------------------------------
    # Attributes
    # ------------------------------------------------------------------

    def parse_attribute(self) -> Attribute:
        tok = self.toks[self.i]
        first = tok[:1]
        if first == '"':
            return StringAttr(self.parse_string_literal())
        if first == "@":
            return self._parse_symbol_ref()
        if tok == "unit":
            self.i += 1
            return UnitAttr()
        if tok == "array" and self.toks[self.i + 1] == "<":
            self.i += 2
            return self._parse_dense_array()
        if _NUMBER_RE.fullmatch(tok):
            return self._parse_number_attr(tok)
        # Fall back to a type attribute.
        return TypeAttr(self.parse_type())

    def _parse_symbol_ref(self) -> SymbolRefAttr:
        root = self._parse_sigil_name("@")
        nested: List[str] = []
        while self.try_consume("::"):
            nested.append(self._parse_sigil_name("@"))
        return SymbolRefAttr(root, nested)

    def _parse_dense_array(self) -> DenseArrayAttr:
        self.expect("i64")
        values: List[int] = []
        if self.try_consume(":"):
            values.append(self.parse_integer())
            while self.try_consume(","):
                values.append(self.parse_integer())
        self.expect(">")
        return DenseArrayAttr(values)

    def _parse_number_attr(self, tok: str) -> Attribute:
        self.i += 1
        is_int = _INT_RE.fullmatch(tok) is not None
        if not self.try_consume(":"):
            return IntegerAttr.from_int(int(tok)) if is_int else FloatAttr.from_float(float(tok))
        attr_type = self.parse_type()
        if isinstance(attr_type, FloatType):
            return FloatAttr(float(tok), attr_type)
        if is_int:  # never through float: i64 values above 2**53 must survive
            return IntegerAttr(int(tok), attr_type)
        try:
            return IntegerAttr(int(float(tok)), attr_type)
        except (OverflowError, ValueError):
            raise self._error(f"'{tok}' is not a value of {attr_type.print()}") from None

    def parse_attr_dict_body(self) -> Dict[str, Attribute]:
        self.expect("{")
        attrs: Dict[str, Attribute] = {}
        if not self.peek("}"):
            while True:
                if self.toks[self.i][:1] == '"':
                    key = self.parse_string_literal()
                else:
                    key = self.parse_ident()
                self.expect("=")
                attrs[key] = self.parse_attribute()
                if not self.try_consume(","):
                    break
        self.expect("}")
        return attrs

    # ------------------------------------------------------------------
    # Operations, blocks, regions
    # ------------------------------------------------------------------

    def parse_module(self) -> Operation:
        op = self.parse_operation()
        if not self.at_end():
            raise self._error("unexpected trailing input after top-level operation")
        return op

    def _parse_value_ids(self) -> List[str]:
        names = [self._parse_sigil_name("%")]
        while self.try_consume(","):
            names.append(self._parse_sigil_name("%"))
        return names

    def parse_operation(self) -> Operation:
        bound_names: List[str] = []
        if self.toks[self.i][:1] == "%":
            bound_names = self._parse_value_ids()
            self.expect("=")
        op_name = self.parse_string_literal()

        # Operand list
        self.expect("(")
        operand_names = [] if self.peek(")") else self._parse_value_ids()
        self.expect(")")

        # Optional regions
        regions: List[Region] = []
        if self.try_consume("("):
            regions.append(self.parse_region())
            while self.try_consume(","):
                regions.append(self.parse_region())
            self.expect(")")

        # Optional attribute dictionary
        attributes: Dict[str, Attribute] = {}
        if self.peek("{"):
            attributes = self.parse_attr_dict_body()

        self.expect(":")
        operand_types, result_types = self._parse_functional_type()

        if len(operand_types) != len(operand_names):
            raise self._error(
                f"operation '{op_name}' lists {len(operand_names)} operands but "
                f"{len(operand_types)} operand types"
            )
        if bound_names and len(result_types) != len(bound_names):
            raise self._error(
                f"operation '{op_name}' binds {len(bound_names)} results but "
                f"{len(result_types)} result types"
            )

        operands: List[SSAValue] = []
        for name, expected_type in zip(operand_names, operand_types):
            value = self.values.get(name)
            if value is None:
                raise self._error(f"use of undefined value %{name}")
            if value.type != expected_type:
                raise self._error(
                    f"type mismatch for %{name}: defined as {value.type.print()}, "
                    f"used as {expected_type.print()}"
                )
            operands.append(value)

        op = self._build_operation(op_name, operands, result_types, attributes, regions)
        for name, res in zip(bound_names, op.results):
            res.name_hint = name
            self.values[name] = res
        return op

    def _build_operation(
        self,
        op_name: str,
        operands: List[SSAValue],
        result_types: List[TypeAttribute],
        attributes: Dict[str, Attribute],
        regions: List[Region],
    ) -> Operation:
        op_class = registered(OP_CLASSES, op_name)
        if op_class is None:
            raise self._error(f"unregistered operation '{op_name}'")
        op = object.__new__(op_class)
        Operation.__init__(op, operands, result_types, attributes, regions)
        return op

    def parse_region(self) -> Region:
        self.expect("{")
        region = Region()
        if self.toks[self.i][:1] == "^":
            while self.toks[self.i][:1] == "^":
                region.add_block(self.parse_block())
        elif not self.peek("}"):
            block = Block()
            region.add_block(block)
            while not self.peek("}"):
                block.add_op(self.parse_operation())
        self.expect("}")
        return region

    def parse_block(self) -> Block:
        if self.toks[self.i][:1] != "^":
            raise self._error("expected '^'")
        self.i += 1  # the label; block names are not referenced
        block = Block()
        if self.try_consume("("):
            if not self.peek(")"):
                while True:
                    name = self._parse_sigil_name("%")
                    self.expect(":")
                    arg = block.add_arg(self.parse_type())
                    arg.name_hint = name
                    self.values[name] = arg
                    if not self.try_consume(","):
                        break
            self.expect(")")
        self.expect(":")
        while self.toks[self.i][:1] not in ("^", "}", ""):
            block.add_op(self.parse_operation())
        return block


def parse_module(text: str) -> Operation:
    """Parse a module (or any single top-level operation) from text."""
    return IRParser(text).parse_module()


__all__ = ["IRParser", "ParseError", "parse_module"]
