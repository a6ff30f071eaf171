"""Core SSA IR framework (the project's xDSL/MLIR equivalent).

Exports the structural classes (values, operations, blocks, regions), the
attribute/type system, the builder, the textual printer/parser, the dead-op
and constant-fold worklist and the pass manager.
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
from .context import Context, Dialect, default_context
from .operation import Block, IRError, Operation, Region, VerifyException
from .parser import IRParser, ParseError, parse_module
from .pass_manager import (
    GLOBAL_PASS_REGISTRY,
    ModulePass,
    PassManager,
    PassRegistry,
    parse_pipeline,
    register_pass,
)
from .printer import Printer, print_module, print_op
from .rewriting import erase_and_fold
from .ssa import BlockArgument, OpResult, SSAValue, Use
from .types import (
    DYNAMIC,
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
    # tooling
    "Builder",
    "InsertPoint",
    "Context",
    "Dialect",
    "default_context",
    "Printer",
    "print_op",
    "print_module",
    "IRParser",
    "ParseError",
    "parse_module",
    "erase_and_fold",
    "ModulePass",
    "PassManager",
    "PassRegistry",
    "GLOBAL_PASS_REGISTRY",
    "register_pass",
    "parse_pipeline",
]
