"""Core SSA IR framework (the project's xDSL/MLIR equivalent).

Exports the structural classes (values, operations, blocks, regions), the
attribute/type system, the builder, the textual printer/parser, the dead-op
and constant-fold worklist and the pass manager, and the tables the dialects
and passes fill as they are defined: ``OP_CLASSES``, ``TYPE_PARSERS``,
``PASSES`` and ``ACCEPTED_PASSES``.
"""

from .attributes import (
    Attribute,
    DenseArrayAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    SymbolRefAttr,
    TypeAttr,
    TypeAttribute,
    UnitAttr,
)
from .builder import Builder, InsertPoint
from .operation import OP_CLASSES, Block, IRError, Operation, Region, VerifyException
from .parser import IRParser, ParseError, parse_module
from .pass_manager import (
    ACCEPTED_PASSES,
    PASSES,
    ModulePass,
    PassManager,
    parse_pipeline,
    register_pass,
)
from .printer import Printer, print_module, print_op
from .rewriting import erase_and_fold
from .ssa import BlockArgument, OpResult, SSAValue, Use
from .types import (
    DYNAMIC,
    TYPE_PARSERS,
    FloatType,
    FunctionType,
    IndexType,
    IntegerType,
    MemRefType,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
)

__all__ = [
    # attributes
    "Attribute",
    "TypeAttribute",
    "UnitAttr",
    "StringAttr",
    "IntegerAttr",
    "FloatAttr",
    "DenseArrayAttr",
    "SymbolRefAttr",
    "TypeAttr",
    # types
    "DYNAMIC",
    "IntegerType",
    "IndexType",
    "FloatType",
    "FunctionType",
    "MemRefType",
    "TYPE_PARSERS",
    "i1",
    "i32",
    "i64",
    "f32",
    "f64",
    "index",
    # ssa & structure
    "SSAValue",
    "OpResult",
    "BlockArgument",
    "Use",
    "Operation",
    "Block",
    "Region",
    "IRError",
    "VerifyException",
    "OP_CLASSES",
    # tooling
    "Builder",
    "InsertPoint",
    "Printer",
    "print_op",
    "print_module",
    "IRParser",
    "ParseError",
    "parse_module",
    "erase_and_fold",
    "ModulePass",
    "PassManager",
    "PASSES",
    "ACCEPTED_PASSES",
    "register_pass",
    "parse_pipeline",
]
