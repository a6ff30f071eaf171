"""FIR code generation from the Fortran AST.

The generator mimics the idioms Flang produces when lowering to FIR, because
the stencil discovery pass (the paper's core contribution) pattern-matches
those idioms:

* every variable — including DO loop variables — lives in a ``fir.alloca``
  (or dummy-argument reference) and is bound to its source name with
  ``fir.declare``;
* counted loops become ``fir.do_loop`` whose index is converted and stored
  into the loop variable's memory slot at the top of the body;
* array element accesses are ``fir.coordinate_of`` + ``fir.load`` /
  ``fir.store`` with zero-based index expressions built from ``fir.load`` of
  the driving variables, ``fir.convert`` casts and ``arith`` offset maths.

The op *kinds* are Flang's; their multiplicity is not.  Flang re-emits every
constant and every subscript chain at each use; here a constant is built once
per function and a scalar-pure subscript chain once per block (see
``_constant`` and ``_element_address``), so discovery does not construct,
verify and erase hundreds of duplicates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..dialects import arith, fir, func, math_dialect as math
from ..dialects.builtin import ModuleOp
from ..ir.builder import Builder
from ..ir.operation import Block, Operation, Region
from ..ir.ssa import SSAValue
from ..ir.types import (
    DYNAMIC,
    FloatType,
    IntegerType,
    TypeAttribute,
    f32,
    f64,
    i1,
    i32,
    i64,
    index,
)
from .ast_nodes import (
    AllocateStmt,
    Assignment,
    BinaryOp,
    CallStmt,
    DeallocateStmt,
    DoLoop,
    Expr,
    IfBlock,
    IntLiteral,
    IntrinsicCall,
    LogicalLiteral,
    PrintStmt,
    ProgramUnit,
    RealLiteral,
    ReturnStmt,
    SourceFile,
    Statement,
    UnaryOp,
    VarRef,
)
from .symbols import SemanticError, Symbol, SymbolTable


class CodegenError(Exception):
    """Raised when the generator meets a construct it cannot lower."""


def _scalar_type(symbol: Symbol) -> TypeAttribute:
    if symbol.base_type == "integer":
        return i64 if symbol.kind == 8 else i32
    if symbol.base_type == "real":
        return f64 if symbol.kind == 8 else f32
    if symbol.base_type == "logical":
        return i1
    raise CodegenError(f"unsupported base type '{symbol.base_type}'")


def _array_type(symbol: Symbol) -> fir.SequenceType:
    shape = []
    for dim in symbol.dims:
        shape.append(dim.extent if dim.extent is not None else DYNAMIC)
    return fir.SequenceType(shape, _scalar_type(symbol))


def _scalar_pure_key(expr: Expr):
    """A hashable structural key of ``expr`` when it is built only from integer
    literals, parameters, scalar variables and ``+ - *`` (so its value can only
    change when a scalar is stored to); ``None`` otherwise."""
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, VarRef):
        return None if expr.subscripts else expr.name
    if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*"):
        lhs, rhs = _scalar_pure_key(expr.lhs), _scalar_pure_key(expr.rhs)
        return None if lhs is None or rhs is None else (expr.op, lhs, rhs)
    return None


class _FunctionCodegen:
    """Generates one ``func.func`` containing FIR for one program unit."""

    def __init__(self, unit: ProgramUnit, module_units: Dict[str, ProgramUnit]):
        self.unit = unit
        self.symtab = SymbolTable(unit)
        self.module_units = module_units
        #: name -> reference-like SSA value addressing the variable's storage
        self.storage: Dict[str, SSAValue] = {}
        self.builder = Builder()
        self.func_op: Optional[func.FuncOp] = None
        #: (IR type, repr of the value) -> the function's one ``arith.constant``
        self._constants: Dict[Tuple[TypeAttribute, str], SSAValue] = {}
        #: (block, lower bound, subscript key) -> its zero-based index value
        self._subscripts: Dict[tuple, SSAValue] = {}

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def generate(self) -> func.FuncOp:
        arg_types = [self._dummy_type(self.symtab[a]) for a in self.unit.args]
        self.func_op = func.FuncOp.build(self.unit.name, arg_types, [])
        entry = self.func_op.entry_block
        self.builder.set_insertion_point_to_end(entry)

        # Bind dummy arguments.
        for arg_value, arg_name in zip(entry.args, self.unit.args):
            arg_value.name_hint = arg_name
            declare = self.builder.insert(
                fir.DeclareOp(arg_value, self._uniq_name(arg_name))
            )
            self.storage[arg_name] = declare.results[0]

        # Allocate local (non-dummy, non-parameter) variables.
        for symbol in self.symtab.values():
            if symbol.is_dummy or symbol.is_parameter:
                continue
            if symbol.is_allocatable:
                continue  # storage is created by the allocate statement
            self._allocate_local(symbol)

        for stmt in self.unit.body:
            self.gen_statement(stmt)

        self.builder.insert(func.ReturnOp([]))
        return self.func_op

    def _uniq_name(self, name: str) -> str:
        return f"_QF{self.unit.name}E{name}"

    def _dummy_type(self, symbol: Symbol) -> TypeAttribute:
        if symbol.is_array:
            return fir.ReferenceType(_array_type(symbol))
        return fir.ReferenceType(_scalar_type(symbol))

    def _allocate_local(self, symbol: Symbol) -> None:
        if symbol.is_array:
            in_type: TypeAttribute = _array_type(symbol)
            extent_values: List[SSAValue] = []
            for dim in symbol.dims:
                if dim.extent is None:
                    if dim.upper_expr is None:
                        raise CodegenError(
                            f"array '{symbol.name}' has a deferred shape but is not "
                            "allocatable"
                        )
                    upper, _ = self.gen_expression(dim.upper_expr)
                    extent_values.append(self._to_index(upper))
            alloca = self.builder.insert(
                fir.AllocaOp(in_type, uniq_name=self._uniq_name(symbol.name),
                             dynamic_extents=extent_values)
            )
        else:
            alloca = self.builder.insert(
                fir.AllocaOp(_scalar_type(symbol), uniq_name=self._uniq_name(symbol.name))
            )
        declare = self.builder.insert(
            fir.DeclareOp(alloca.results[0], self._uniq_name(symbol.name))
        )
        self.storage[symbol.name] = declare.results[0]

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def gen_statement(self, stmt: Statement) -> None:
        if isinstance(stmt, Assignment):
            self.gen_assignment(stmt)
            if stmt.target.is_array_ref:
                return  # variables do not alias: every scalar still has its value
        elif isinstance(stmt, DoLoop):
            self.gen_do_loop(stmt)
        elif isinstance(stmt, IfBlock):
            self.gen_if(stmt)
        elif isinstance(stmt, CallStmt):
            self.gen_call(stmt)
        elif isinstance(stmt, AllocateStmt):
            self.gen_allocate(stmt)
        elif isinstance(stmt, DeallocateStmt):
            self.gen_deallocate(stmt)
        elif isinstance(stmt, (PrintStmt, ReturnStmt)):
            # Output has no effect on the kernels; RETURN at the end of a unit
            # coincides with the implicit return the generator always emits.
            pass
        else:
            raise CodegenError(f"unsupported statement {type(stmt).__name__}")
        # A scalar may now hold another value (scalar store, call, allocate, a
        # nested region's stores): the subscript chains lowered so far are stale.
        self._subscripts.clear()

    def gen_assignment(self, stmt: Assignment) -> None:
        symbol = self.symtab[stmt.target.name]
        value, value_kind = self.gen_expression(stmt.value)
        target_type = _scalar_type(symbol)
        value = self._convert_to(value, target_type)
        if stmt.target.is_array_ref:
            address = self._element_address(stmt.target, symbol)
            self.builder.insert(fir.StoreOp(value, address))
        else:
            if symbol.is_parameter:
                raise CodegenError(f"cannot assign to parameter '{symbol.name}'")
            self.builder.insert(fir.StoreOp(value, self.storage[symbol.name]))

    def gen_do_loop(self, stmt: DoLoop) -> None:
        var_symbol = self.symtab[stmt.var]
        if var_symbol.base_type != "integer":
            raise CodegenError("DO loop variables must be integers")
        start, _ = self.gen_expression(stmt.start)
        stop, _ = self.gen_expression(stmt.stop)
        lower = self._to_index(start)
        upper = self._to_index(stop)
        if stmt.step is not None:
            step_value, _ = self.gen_expression(stmt.step)
            step = self._to_index(step_value)
        else:
            step = self._constant(1, index)

        loop = self.builder.insert(fir.DoLoopOp(lower, upper, step))
        with self.builder.guarded():
            self.builder.set_insertion_point_to_end(loop.body.block)
            induction = loop.induction_variable
            induction.name_hint = stmt.var
            as_int = self.builder.insert(
                fir.ConvertOp(induction, _scalar_type(var_symbol))
            )
            self.builder.insert(
                fir.StoreOp(as_int.results[0], self.storage[stmt.var])
            )
            for inner in stmt.body:
                self.gen_statement(inner)
            self.builder.insert(fir.ResultOp([]))

    def gen_if(self, stmt: IfBlock) -> None:
        self._gen_if_branches(stmt.branches, stmt.else_body)

    def _gen_if_branches(self, branches, else_body) -> None:
        condition_expr, body = branches[0]
        condition, _ = self.gen_expression(condition_expr)
        if_op = self.builder.insert(fir.IfOp(condition, Region([Block()]), Region([Block()])))
        with self.builder.guarded():
            self.builder.set_insertion_point_to_end(if_op.regions[0].block)
            for inner in body:
                self.gen_statement(inner)
            self.builder.insert(fir.ResultOp([]))
        with self.builder.guarded():
            self.builder.set_insertion_point_to_end(if_op.regions[1].block)
            if len(branches) > 1:
                self._gen_if_branches(branches[1:], else_body)
            else:
                for inner in else_body:
                    self.gen_statement(inner)
            self.builder.insert(fir.ResultOp([]))

    def gen_call(self, stmt: CallStmt) -> None:
        arguments: List[SSAValue] = []
        for arg in stmt.args:
            if isinstance(arg, VarRef) and not arg.subscripts and arg.name in self.storage:
                arguments.append(self.storage[arg.name])
                continue
            # Pass expressions by reference through a compiler temporary.
            value, _ = self.gen_expression(arg)
            temp = self.builder.insert(
                fir.AllocaOp(value.type, uniq_name=f"{self._uniq_name('tmp')}.{len(arguments)}")
            )
            self.builder.insert(fir.StoreOp(value, temp.results[0]))
            arguments.append(temp.results[0])
        self.builder.insert(fir.CallOp(stmt.name, arguments))

    def gen_allocate(self, stmt: AllocateStmt) -> None:
        for ref in stmt.allocations:
            symbol = self.symtab[ref.name]
            if not symbol.is_allocatable:
                raise CodegenError(f"'{ref.name}' is not allocatable")
            elem = _scalar_type(symbol)
            extents: List[SSAValue] = []
            shape: List[int] = []
            for sub in ref.subscripts:
                const = self.symtab.try_evaluate_constant(sub)
                if const is not None:
                    shape.append(int(const))
                else:
                    shape.append(DYNAMIC)
                    value, _ = self.gen_expression(sub)
                    extents.append(self._to_index(value))
            array_type = fir.SequenceType(shape, elem)
            alloc = self.builder.insert(
                fir.AllocMemOp(array_type, uniq_name=self._uniq_name(ref.name),
                               dynamic_extents=extents)
            )
            declare = self.builder.insert(
                fir.DeclareOp(alloc.results[0], self._uniq_name(ref.name))
            )
            self.storage[ref.name] = declare.results[0]
            # Record the run-time shape for addressing.
            symbol.dims = symbol.dims or []

    def gen_deallocate(self, stmt: DeallocateStmt) -> None:
        for name in stmt.names:
            storage = self.storage.get(name)
            if storage is None:
                raise CodegenError(f"deallocate of unallocated variable '{name}'")
            self.builder.insert(fir.FreeMemOp(storage))

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def gen_expression(self, expr: Expr) -> Tuple[SSAValue, TypeAttribute]:
        if isinstance(expr, IntLiteral):
            return self._constant(expr.value, i32), i32
        if isinstance(expr, RealLiteral):
            return self._constant(expr.value, f64), f64
        if isinstance(expr, LogicalLiteral):
            return self._constant(int(expr.value), i1), i1
        if isinstance(expr, VarRef):
            return self.gen_var_ref(expr)
        if isinstance(expr, UnaryOp):
            return self.gen_unary(expr)
        if isinstance(expr, BinaryOp):
            return self.gen_binary(expr)
        if isinstance(expr, IntrinsicCall):
            return self.gen_intrinsic(expr)
        raise CodegenError(f"unsupported expression {type(expr).__name__}")

    def gen_var_ref(self, expr: VarRef) -> Tuple[SSAValue, TypeAttribute]:
        symbol = self.symtab[expr.name]
        if symbol.is_parameter:
            value = symbol.parameter_value
            if symbol.base_type == "integer":
                return self._constant(int(value), i32), i32
            return self._constant(float(value), f64), f64
        if expr.is_array_ref:
            address = self._element_address(expr, symbol)
            load = self.builder.insert(fir.LoadOp(address))
            return load.results[0], load.results[0].type
        load = self.builder.insert(fir.LoadOp(self.storage[expr.name]))
        return load.results[0], load.results[0].type

    def gen_unary(self, expr: UnaryOp) -> Tuple[SSAValue, TypeAttribute]:
        value, value_type = self.gen_expression(expr.operand)
        if expr.op == "-":
            if isinstance(value_type, FloatType):
                op = self.builder.insert(arith.NegfOp(value))
                return op.results[0], value_type
            op = self.builder.insert(arith.SubiOp(self._constant(0, value_type), value))
            return op.results[0], value_type
        if expr.op == ".not.":
            op = self.builder.insert(arith.XOrIOp(value, self._constant(1, i1)))
            return op.results[0], i1
        raise CodegenError(f"unsupported unary operator '{expr.op}'")

    _FLOAT_BINOPS = {"+": arith.AddfOp, "-": arith.SubfOp, "*": arith.MulfOp, "/": arith.DivfOp}
    _INT_BINOPS = {"+": arith.AddiOp, "-": arith.SubiOp, "*": arith.MuliOp, "/": arith.DivSIOp}
    _FLOAT_CMP = {"==": "oeq", "/=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}
    _INT_CMP = {"==": "eq", "/=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}

    def gen_binary(self, expr: BinaryOp) -> Tuple[SSAValue, TypeAttribute]:
        if expr.op in (".and.", ".or."):
            lhs, _ = self.gen_expression(expr.lhs)
            rhs, _ = self.gen_expression(expr.rhs)
            cls = arith.AndIOp if expr.op == ".and." else arith.OrIOp
            op = self.builder.insert(cls(lhs, rhs))
            return op.results[0], i1

        lhs, lhs_type = self.gen_expression(expr.lhs)
        rhs, rhs_type = self.gen_expression(expr.rhs)

        if expr.op == "**":
            return self.gen_power(lhs, lhs_type, rhs, rhs_type, expr)

        lhs, rhs, common = self._usual_conversions(lhs, lhs_type, rhs, rhs_type)

        if expr.op in ("==", "/=", "<", "<=", ">", ">="):
            if isinstance(common, FloatType):
                op = self.builder.insert(arith.CmpfOp(self._FLOAT_CMP[expr.op], lhs, rhs))
            else:
                op = self.builder.insert(arith.CmpiOp(self._INT_CMP[expr.op], lhs, rhs))
            return op.results[0], i1

        table = self._FLOAT_BINOPS if isinstance(common, FloatType) else self._INT_BINOPS
        if expr.op not in table:
            raise CodegenError(f"unsupported binary operator '{expr.op}'")
        op = self.builder.insert(table[expr.op](lhs, rhs))
        return op.results[0], common

    def gen_power(self, lhs, lhs_type, rhs, rhs_type, expr) -> Tuple[SSAValue, TypeAttribute]:
        # x ** <small positive int literal> unrolls to repeated multiplication,
        # matching what Flang's arith lowering does for constant exponents.
        if isinstance(expr.rhs, IntLiteral) and 1 <= expr.rhs.value <= 4:
            base, base_type = lhs, lhs_type
            if not isinstance(base_type, FloatType):
                base = self._convert_to(base, f64)
                base_type = f64
            result = base
            for _ in range(expr.rhs.value - 1):
                result = self.builder.insert(arith.MulfOp(result, base)).results[0]
            return result, base_type
        base = self._convert_to(lhs, f64)
        exponent = self._convert_to(rhs, f64)
        op = self.builder.insert(math.PowFOp(base, exponent))
        return op.results[0], f64

    _UNARY_MATH = {
        "sqrt": math.SqrtOp,
        "abs": math.AbsFOp,
        "exp": math.ExpOp,
        "log": math.LogOp,
        "log10": math.Log10Op,
        "sin": math.SinOp,
        "cos": math.CosOp,
        "tan": math.TanOp,
        "tanh": math.TanhOp,
    }

    def gen_intrinsic(self, expr: IntrinsicCall) -> Tuple[SSAValue, TypeAttribute]:
        name = expr.name
        if name in self._UNARY_MATH:
            value, value_type = self.gen_expression(expr.args[0])
            value = self._convert_to(value, f64)
            op = self.builder.insert(self._UNARY_MATH[name](value))
            return op.results[0], f64
        if name in ("min", "max"):
            values = [self.gen_expression(a) for a in expr.args]
            any_float = any(isinstance(t, FloatType) for _, t in values)
            result, result_type = values[0]
            if any_float:
                result = self._convert_to(result, f64)
                result_type = f64
            for value, value_type in values[1:]:
                if any_float:
                    value = self._convert_to(value, f64)
                    cls = arith.MinimumfOp if name == "min" else arith.MaximumfOp
                else:
                    cls = arith.MinSIOp if name == "min" else arith.MaxSIOp
                result = self.builder.insert(cls(result, value)).results[0]
            return result, result_type
        if name == "mod":
            lhs, lhs_type = self.gen_expression(expr.args[0])
            rhs, rhs_type = self.gen_expression(expr.args[1])
            lhs, rhs, common = self._usual_conversions(lhs, lhs_type, rhs, rhs_type)
            if isinstance(common, FloatType):
                raise CodegenError("mod() on reals is not supported")
            op = self.builder.insert(arith.RemSIOp(lhs, rhs))
            return op.results[0], common
        if name in ("dble", "real", "float"):
            value, _ = self.gen_expression(expr.args[0])
            return self._convert_to(value, f64), f64
        if name in ("int", "nint"):
            value, _ = self.gen_expression(expr.args[0])
            return self._convert_to(value, i32), i32
        if name == "sign":
            magnitude, _ = self.gen_expression(expr.args[0])
            sign_source, _ = self.gen_expression(expr.args[1])
            magnitude = self._convert_to(magnitude, f64)
            sign_source = self._convert_to(sign_source, f64)
            zero = self._constant(0.0, f64)
            absval = self.builder.insert(math.AbsFOp(magnitude)).results[0]
            neg = self.builder.insert(arith.NegfOp(absval)).results[0]
            is_neg = self.builder.insert(arith.CmpfOp("olt", sign_source, zero)).results[0]
            op = self.builder.insert(arith.SelectOp(is_neg, neg, absval))
            return op.results[0], f64
        raise CodegenError(f"unsupported intrinsic '{name}'")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _usual_conversions(
        self, lhs: SSAValue, lhs_type: TypeAttribute, rhs: SSAValue, rhs_type: TypeAttribute
    ) -> Tuple[SSAValue, SSAValue, TypeAttribute]:
        """Fortran's mixed-mode arithmetic: promote integers to reals, and
        everything to the widest kind present."""
        lhs_float = isinstance(lhs_type, FloatType)
        rhs_float = isinstance(rhs_type, FloatType)
        if lhs_float or rhs_float:
            width = max(
                lhs_type.width if lhs_float else 0, rhs_type.width if rhs_float else 0
            )
            target = f64 if width >= 64 else f32
            return self._convert_to(lhs, target), self._convert_to(rhs, target), target
        # both integers: use the wider
        lhs_width = lhs_type.width if isinstance(lhs_type, IntegerType) else 64
        rhs_width = rhs_type.width if isinstance(rhs_type, IntegerType) else 64
        target = i64 if max(lhs_width, rhs_width) > 32 else i32
        return self._convert_to(lhs, target), self._convert_to(rhs, target), target

    def _constant(self, value: Union[int, float], type: TypeAttribute) -> SSAValue:
        """The function's one ``arith.constant`` of ``value``: created at first
        use at the top of the entry block, where it dominates every region."""
        key = (type, repr(value))  # repr: 0.0 and -0.0 compare equal
        found = self._constants.get(key)
        if found is None:
            build = arith.ConstantOp.from_float if isinstance(type, FloatType) \
                else arith.ConstantOp.from_int
            op = build(value, type)
            self.func_op.entry_block.insert_op_at(len(self._constants), op)
            found = self._constants[key] = op.results[0]
        return found

    def _convert_to(self, value: SSAValue, target: TypeAttribute) -> SSAValue:
        if value.type == target:
            return value
        op = self.builder.insert(fir.ConvertOp(value, target))
        return op.results[0]

    def _to_index(self, value: SSAValue) -> SSAValue:
        return self._convert_to(value, index)

    def _element_address(self, ref: VarRef, symbol: Symbol) -> SSAValue:
        """Zero-based ``fir.coordinate_of`` addressing of ``ref``."""
        if not symbol.is_array:
            raise CodegenError(f"'{ref.name}' is not an array")
        if len(ref.subscripts) != symbol.rank:
            raise CodegenError(
                f"'{ref.name}' has rank {symbol.rank} but {len(ref.subscripts)} "
                "subscripts were given"
            )
        indices: List[SSAValue] = []
        block = self.builder.insertion_point.block
        for sub, dim in zip(ref.subscripts, symbol.dims):
            lower = dim.lower if dim.lower is not None else 1
            # A scalar-pure subscript already lowered in this block still has
            # its value: gen_statement drops the memo wherever a scalar may differ.
            pure = _scalar_pure_key(sub)
            key = None if pure is None else (block, lower, pure)
            as_index = self._subscripts.get(key)
            if as_index is None:
                value, _ = self.gen_expression(sub)
                as_index = self._to_index(value)
                if lower != 0:
                    as_index = self.builder.insert(
                        arith.SubiOp(as_index, self._constant(lower, index))
                    ).results[0]
                if key is not None:
                    self._subscripts[key] = as_index
            indices.append(as_index)
        storage = self.storage[ref.name]
        coord = self.builder.insert(fir.CoordinateOfOp(storage, indices))
        return coord.results[0]


def generate_fir(source_file: SourceFile) -> ModuleOp:
    """Generate a FIR module from a parsed source file (all program units)."""
    units = {unit.name: unit for unit in source_file.units}
    functions = []
    for unit in source_file.units:
        functions.append(_FunctionCodegen(unit, units).generate())
    module = ModuleOp(functions)
    module.verify()
    return module


__all__ = ["generate_fir", "CodegenError", "_scalar_type", "_array_type"]
