"""The op table: a module as JSON data, and every table the decoder refuses."""

import copy
import json

import pytest

from repro.dialects import arith, func
from repro.dialects.builtin import ModuleOp
from repro.ir import Builder, ParseError, f64, print_module
from repro.ir.table import TableError, decode_module, encode_module


def axpy_module():
    f = func.FuncOp.build("axpy", [f64, f64], [f64])
    b = Builder.at_end(f.entry_block)
    c = b.insert(arith.ConstantOp.from_float(2.0))
    m = b.insert(arith.MulfOp(c.result, f.entry_block.args[0]))
    a = b.insert(arith.AddfOp(m.result, f.entry_block.args[1]))
    a.result.name_hint = "sum"
    b.insert(func.ReturnOp([a.result]))
    return ModuleOp([f])


def body(table):
    """The op entries of the function body: constant, mulf, addf, return."""
    return table["op"][4][0][0][1][0][4][0][0][1]


def test_round_trip_through_json_reprints_byte_identical():
    module = axpy_module()
    table = json.loads(json.dumps(encode_module(module)))
    decoded = decode_module(table)
    decoded.verify()
    assert print_module(decoded) == print_module(module)
    assert "sum" in table["hints"] and None in table["hints"]


def test_each_spelling_is_stored_once():
    table = encode_module(axpy_module())
    assert table["types"].count("f64") == 1
    assert len(set(table["attrs"])) == len(table["attrs"])


def test_two_decodes_share_no_values():
    table = encode_module(axpy_module())
    first, second = (decode_module(table) for _ in range(2))
    assert not {id(op) for op in first.walk()} & {id(op) for op in second.walk()}


def refused(mutate, error=TableError, match=None):
    table = copy.deepcopy(encode_module(axpy_module()))
    mutate(table)
    with pytest.raises(error, match=match):
        decode_module(table)


def test_an_unregistered_op_is_refused():
    refused(lambda t: body(t)[1].__setitem__(0, "memref.alloc"),
            match="unregistered operation 'memref.alloc'")


@pytest.mark.parametrize("field,index", [(2, 99), (2, -1), (1, 99), (1, -1)])
def test_an_out_of_range_id_is_refused(field, index):
    refused(lambda t: body(t)[2][field].__setitem__(0, index),
            match="not all in range")


@pytest.mark.parametrize("field", [1, 2])
def test_a_boolean_id_is_refused(field):
    # JSON ``true`` decodes to ``True``, an ``int`` equal to 1; with a second
    # type spelled, value 1 and type 1 both exist.
    def mutate(table):
        table["types"].append("f32")
        body(table)[1][field][0] = True
    refused(mutate, match="not all in range")


def test_an_out_of_range_attribute_id_is_refused():
    refused(lambda t: body(t)[0][3][0].__setitem__(1, -1), match="out of range")


def test_a_use_before_its_definition_is_refused():
    # The mulf names the addf's result, defined one op later.
    def forward(table):
        body(table)[1][1][0] = body(table)[1][1][0] + 2
    refused(forward, match="not all in range")


def test_a_hint_count_that_differs_from_the_values_is_refused():
    refused(lambda t: t["hints"].append(None), match="name hints for")


def test_a_block_argument_out_of_order_is_refused():
    refused(lambda t: t["op"][4][0][0][1][0][4][0][0][0][0].__setitem__(0, 5),
            match="block argument")


@pytest.mark.parametrize("mutate", [
    lambda t: t.pop("op"),
    lambda t: t.__setitem__("op", 7),
    lambda t: body(t)[0].pop(),
    lambda t: body(t)[0].__setitem__(1, "x"),
    lambda t: t["hints"].__setitem__(0, 3),
    lambda t: t["types"].__setitem__(0, 64),
])
def test_a_malformed_shape_is_refused(mutate):
    refused(mutate, (TypeError, ValueError, KeyError))


def test_a_spelling_the_parser_rejects_is_a_parse_error():
    refused(lambda t: t["types"].__setitem__(0, "f65"), ParseError)
    refused(lambda t: t["types"].__setitem__(0, "f64 f64"), TableError,
            match="trailing input")
