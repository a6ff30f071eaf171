"""Operations, blocks and regions — the structural core of the IR.

The three classes are mutually recursive (operations contain regions, regions
contain blocks, blocks contain operations) and therefore live in one module.
``repro.ir`` re-exports them individually.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from .attributes import Attribute, TypeAttribute
from .ssa import EPOCH, MUTATIONS, BlockArgument, OpResult, SSAValue, Use


class IRError(Exception):
    """Base class for IR construction / manipulation errors."""


class VerifyException(IRError):
    """Raised when an operation or module fails verification."""


_BLOCKS, _OPS = attrgetter("blocks"), attrgetter("ops")

#: Operation name -> class: every subclass that sets its own :attr:`name`
#: enters as its dialect module defines it (:meth:`Operation.__init_subclass__`).
OP_CLASSES: Dict[str, Type["Operation"]] = {}


def _nested_ops(op: "Operation") -> Iterator["Operation"]:
    """The operations directly inside ``op``, block after block; each block's
    list is copied when the iteration reaches that block, not before."""
    return chain.from_iterable(
        map(_OPS, chain.from_iterable(map(_BLOCKS, op.regions))))


class Operation:
    """A generic SSA operation.

    Concrete operations subclass this and set :attr:`name`, which registers
    them in :data:`OP_CLASSES`.  Neither IR decoder builds the base class:
    the text parser and the op table both refuse a name no dialect defines.
    """

    #: Fully qualified operation name, e.g. ``"arith.addf"``.
    name: str = "builtin.unregistered"

    #: Trait classes attached to the operation (see :mod:`repro.ir.traits`).
    traits: Tuple[type, ...] = ()

    # ``__dict__`` stays so a bare ``Operation`` can carry its own ``name``.
    __slots__ = ("_operands", "_uses", "results", "attributes", "regions",
                 "parent", "__dict__")

    #: ``(epoch, ops walked)`` of the last successful :meth:`verify` of this
    #: root: a Python field, never an IR attribute.
    _verified: Tuple[int, int] = (-1, 0)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "name" in cls.__dict__:
            existing = OP_CLASSES.setdefault(cls.name, cls)
            if existing is not cls:
                raise ValueError(f"operation '{cls.name}' defined twice: by "
                                 f"{existing.__qualname__} and {cls.__qualname__}")

    def __init__(
        self,
        operands: Sequence[SSAValue] = (),
        result_types: Sequence[TypeAttribute] = (),
        attributes: Optional[Dict[str, Attribute]] = None,
        regions: Sequence["Region"] = (),
    ):
        self._operands: List[SSAValue] = []
        #: One :class:`Use` per operand slot, registered on ``_operands[i]``.
        self._uses: List[Use] = []
        self.results: List[OpResult] = [
            OpResult(t, self, i) for i, t in enumerate(result_types)
        ]
        self.attributes: Dict[str, Attribute] = dict(attributes or {})
        self.regions: List[Region] = []
        self.parent: Optional[Block] = None

        for operand in operands:
            self._add_operand(operand)
        for region in regions:
            self._add_region(region)

    # ------------------------------------------------------------------
    # Operand management
    # ------------------------------------------------------------------

    @property
    def operands(self) -> Tuple[SSAValue, ...]:
        return tuple(self._operands)

    def add_operand(self, value: SSAValue) -> None:
        self._add_operand(value)
        EPOCH[0] = next(MUTATIONS)

    def _add_operand(self, value: SSAValue) -> None:
        if not isinstance(value, SSAValue):
            raise IRError(
                f"operand of {self.name} must be an SSAValue, got {type(value).__name__}"
            )
        use = Use(self, len(self._operands))
        self._operands.append(value)
        self._uses.append(use)
        value.uses[use] = None

    def set_operand(self, index: int, value: SSAValue) -> None:
        use = self._uses[index]
        self._operands[index].remove_use(use)
        self._operands[index] = value
        value.uses[use] = None
        EPOCH[0] = next(MUTATIONS)

    def set_operands(self, values: Sequence[SSAValue]) -> None:
        """Replace the whole operand list."""
        self.drop_all_operand_uses()
        for value in values:
            self._add_operand(value)

    def drop_all_operand_uses(self) -> None:
        for operand, use in zip(self._operands, self._uses):
            operand.remove_use(use)
        self._operands = []
        self._uses = []
        EPOCH[0] = next(MUTATIONS)

    # ------------------------------------------------------------------
    # Results / attributes
    # ------------------------------------------------------------------

    @property
    def result(self) -> OpResult:
        if len(self.results) != 1:
            raise IRError(
                f"operation {self.name} has {len(self.results)} results; "
                "'.result' requires exactly one"
            )
        return self.results[0]

    def get_attr(self, name: str) -> Attribute:
        try:
            return self.attributes[name]
        except KeyError:
            raise VerifyException(
                f"operation {self.name} is missing required attribute '{name}'"
            ) from None

    def get_attr_or_none(self, name: str) -> Optional[Attribute]:
        return self.attributes.get(name)

    def set_attr(self, name: str, value: Attribute) -> None:
        self.attributes[name] = value
        EPOCH[0] = next(MUTATIONS)

    def remove_attr(self, name: str) -> Optional[Attribute]:
        """Drop attribute ``name``; returns its value (``None`` if absent)."""
        EPOCH[0] = next(MUTATIONS)
        return self.attributes.pop(name, None)

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------

    def add_region(self, region: "Region") -> None:
        self._add_region(region)
        EPOCH[0] = next(MUTATIONS)

    def _add_region(self, region: "Region") -> None:
        if region.parent is not None:
            raise IRError("region is already attached to an operation")
        region.parent = self
        self.regions.append(region)

    @property
    def body(self) -> "Region":
        """Convenience accessor for single-region operations."""
        if len(self.regions) != 1:
            raise IRError(f"operation {self.name} has {len(self.regions)} regions")
        return self.regions[0]

    # ------------------------------------------------------------------
    # Position / structure queries
    # ------------------------------------------------------------------

    def parent_block(self) -> Optional["Block"]:
        return self.parent

    def parent_region(self) -> Optional["Region"]:
        return self.parent.parent if self.parent is not None else None

    def parent_op(self) -> Optional["Operation"]:
        region = self.parent_region()
        return region.parent if region is not None else None

    def is_ancestor_of(self, other: "Operation") -> bool:
        current: Optional[Operation] = other
        while current is not None:
            if current is self:
                return True
            current = current.parent_op()
        return False

    def next_op(self) -> Optional["Operation"]:
        if self.parent is None:
            return None
        ops = self.parent.ops
        idx = ops.index(self)
        return ops[idx + 1] if idx + 1 < len(ops) else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def detach(self) -> "Operation":
        """Remove the operation from its parent block without destroying it."""
        if self.parent is not None:
            self.parent._ops.remove(self)
            self.parent = None
            EPOCH[0] = next(MUTATIONS)
        return self

    def erase(self, *, safe: bool = True) -> None:
        """Remove the operation from the IR and drop its operand uses and
        those of everything nested in it (one pass; nested blocks end empty).

        With ``safe=True`` (the default) erasing an operation whose results are
        still used raises :class:`IRError`.
        """
        if safe:
            for res in self.results:
                if res.has_uses:
                    raise IRError(
                        f"cannot erase {self.name}: result %{res.index} still has "
                        f"{len(res.uses)} use(s)"
                    )
        EPOCH[0] = next(MUTATIONS)
        if self.parent is not None:
            self.parent._ops.remove(self)
            self.parent = None
        doomed = [self]
        try:
            while doomed:
                op = doomed.pop()
                for operand, use in zip(op._operands, op._uses):
                    del operand.uses[use]
                op._operands = []
                op._uses = []
                for region in op.regions:
                    for block in region.blocks:
                        for child in block._ops:
                            child.parent = None
                        doomed.extend(block._ops)
                        block._ops = []
        except KeyError:
            raise ValueError(
                "attempting to remove a use that is not registered") from None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------

    def walk(self, *, include_self: bool = True) -> Iterator["Operation"]:
        """Pre-order walk over this operation and everything nested inside it.
        The IR may change under it: a block's operations are those it held
        when the walk reached it (one erased since is still yielded, with
        nothing under it), and an operation is opened after its consumer ran.
        """
        if include_self:
            yield self
        open_blocks = [_nested_ops(self)]
        while open_blocks:
            for op in open_blocks[-1]:
                yield op
                if op.regions:
                    open_blocks.append(_nested_ops(op))
                    break
            else:
                open_blocks.pop()

    def walk_type(self, op_type: type) -> Iterator["Operation"]:
        for op in self.walk():
            if isinstance(op, op_type):
                yield op

    # ------------------------------------------------------------------
    # Cloning
    # ------------------------------------------------------------------

    def clone(
        self, value_map: Optional[Dict[SSAValue, SSAValue]] = None
    ) -> "Operation":
        """Deep-copy the operation (and nested regions).

        ``value_map`` maps values defined *outside* the clone to replacements;
        it is extended with mappings for every value defined inside.
        """
        if value_map is None:
            value_map = {}
        new_operands = [value_map.get(o, o) for o in self._operands]
        new_op = object.__new__(type(self))
        Operation.__init__(
            new_op,
            operands=new_operands,
            result_types=[r.type for r in self.results],
            attributes=dict(self.attributes),
        )
        for old_res, new_res in zip(self.results, new_op.results):
            value_map[old_res] = new_res
            new_res.name_hint = old_res.name_hint
        for region in self.regions:
            new_op.add_region(region.clone(value_map))
        return new_op

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_(self) -> None:
        """Per-operation verification hook; subclasses override."""

    @property
    def is_verified(self) -> bool:
        """:meth:`verify` passed on this root and nothing was mutated since."""
        return self._verified[0] == EPOCH[0]

    def verify(self) -> int:
        """Verify this operation and everything nested within it; returns the
        number of operations in it.  A root verified at the current epoch
        (:mod:`repro.ir.ssa`) is a state already checked: it returns at once.

        One iterative pre-order pass checks the structure of the whole
        subtree — every operand slot's use is registered on its value, every
        region / block / operation points at its parent — and records where
        each value is defined; an operand whose definition the pass only
        meets later is a use before its definition (a value defined outside
        the subtree is never met and stays legal).  A second loop over the
        same pre-order then checks ``IsolatedFromAbove`` (an
        operation may only use values defined inside its innermost isolated
        ancestor; the outermost violated ancestor is the one named) and calls
        each operation's trait verifiers and ``verify_`` hook exactly once.
        """
        from .traits import IsolatedFromAbove

        epoch = EPOCH[0]
        if self._verified[0] == epoch:
            return self._verified[1]
        #: (operation, its isolated ancestors outermost first), in pre-order.
        order: List[Tuple[Operation, Tuple[Operation, ...]]] = []
        defined_in: Dict[int, Tuple[Operation, ...]] = {}
        #: (operation, operand index, value) not defined when it was used.
        not_yet_defined: List[Tuple[Operation, int, SSAValue]] = []
        stack: List[Tuple[Operation, Tuple[Operation, ...]]] = [(self, ())]
        while stack:
            entry = stack.pop()
            order.append(entry)
            op, isolated = entry
            for value, use in zip(op._operands, op._uses):
                if use not in value.uses:
                    raise VerifyException(
                        f"{op.name}: operand {use.index} does not have a registered use"
                    )
                if id(value) not in defined_in:
                    not_yet_defined.append((op, use.index, value))
            for result in op.results:
                defined_in[id(result)] = isolated
            if not op.regions:
                continue
            if IsolatedFromAbove in op.traits:
                isolated = isolated + (op,)
            children: List[Tuple[Operation, Tuple[Operation, ...]]] = []
            for region in op.regions:
                if region.parent is not op:
                    raise VerifyException(f"{op.name}: region has wrong parent")
                for block in region.blocks:
                    if block.parent is not region:
                        raise VerifyException(f"{op.name}: block has wrong parent region")
                    for arg in block.args:
                        defined_in[id(arg)] = isolated
                    for child in block._ops:
                        if child.parent is not block:
                            raise VerifyException(
                                f"{op.name}: nested op {child.name} has wrong parent block"
                            )
                        children.append((child, isolated))
            stack.extend(reversed(children))

        for op, index, value in not_yet_defined:
            if id(value) in defined_in:
                raise VerifyException(
                    f"{op.name}: operand {index} is used before its definition"
                )

        for op, isolated in order:
            if isolated:
                for operand in op._operands:
                    scope = defined_in.get(id(operand), ())
                    if scope is not isolated and scope[: len(isolated)] != isolated:
                        violated = next(
                            anc for k, anc in enumerate(isolated)
                            if k >= len(scope) or scope[k] is not anc
                        )
                        raise VerifyException(
                            f"{violated.name}: operation {op.name} references a value "
                            "defined outside of an IsolatedFromAbove region"
                        )
            for trait in op.traits:
                verifier = getattr(trait, "verify_trait", None)
                if verifier is not None:
                    verifier(op)
            op.verify_()
        self._verified = (epoch, len(order))
        return len(order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} '{self.name}'>"


class Block:
    """A straight-line sequence of operations with block arguments."""

    def __init__(
        self,
        arg_types: Sequence[TypeAttribute] = (),
        ops: Sequence[Operation] = (),
    ):
        self.args: List[BlockArgument] = [
            BlockArgument(t, self, i) for i, t in enumerate(arg_types)
        ]
        self._ops: List[Operation] = []
        self.parent: Optional[Region] = None
        for op in ops:
            if op.parent is not None:
                raise IRError(f"operation {op.name} is already attached to a block")
            op.parent = self
            self._ops.append(op)

    # -- argument management --------------------------------------------

    def add_arg(self, type: TypeAttribute) -> BlockArgument:
        arg = BlockArgument(type, self, len(self.args))
        self.args.append(arg)
        EPOCH[0] = next(MUTATIONS)
        return arg

    # -- op list management ----------------------------------------------

    @property
    def ops(self) -> Tuple[Operation, ...]:
        return tuple(self._ops)

    @property
    def first_op(self) -> Optional[Operation]:
        return self._ops[0] if self._ops else None

    @property
    def last_op(self) -> Optional[Operation]:
        return self._ops[-1] if self._ops else None

    def add_op(self, op: Operation) -> None:
        if op.parent is not None:
            raise IRError(f"operation {op.name} is already attached to a block")
        op.parent = self
        self._ops.append(op)
        EPOCH[0] = next(MUTATIONS)

    def add_ops(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.add_op(op)

    def index_of(self, op: Operation) -> int:
        # An op equals only itself (no class defines ``__eq__``): a C scan.
        if op.parent is self:
            return self._ops.index(op)
        raise IRError(f"operation {op.name} is not in this block")

    def insert_op_at(self, index: int, op: Operation) -> None:
        if op.parent is not None:
            raise IRError(f"operation {op.name} is already attached to a block")
        op.parent = self
        self._ops.insert(index, op)
        EPOCH[0] = next(MUTATIONS)

    def insert_op_before(self, new_op: Operation, existing: Operation) -> None:
        self.insert_op_at(self.index_of(existing), new_op)

    def insert_op_after(self, new_op: Operation, existing: Operation) -> None:
        self.insert_op_at(self.index_of(existing) + 1, new_op)

    def insert_ops_before(
        self, new_ops: Sequence[Operation], existing: Operation
    ) -> None:
        for op in new_ops:
            self.insert_op_before(op, existing)

    def erase_op(self, op: Operation, *, safe: bool = True) -> None:
        if op.parent is not self:
            raise IRError("operation is not in this block")
        op.erase(safe=safe)

    def take_ops(self, source: Union[Sequence[Operation], "Region"],
                 value_map: Optional[Dict[SSAValue, SSAValue]] = None) -> None:
        """Move ``source`` (consecutive ops of one block, or a single-block
        region's ops) to the end of this block, building nothing, then remap
        the operands of the moved ops and of everything nested in them through
        ``value_map``.  Raises :class:`IRError`, moving nothing, if a moved
        result is used by an op that stays behind."""
        ops = list(source.block._ops if isinstance(source, Region) else source)
        if not ops:
            return
        block = ops[0].parent
        start = block._ops.index(ops[0]) if block is not None else -1
        if start < 0 or block._ops[start:start + len(ops)] != ops:
            raise IRError("take_ops moves consecutive operations of one block")
        moved = set(map(id, ops))
        scope = self.parent_op()
        while scope is not None and id(scope) not in moved:
            scope = scope.parent_op()
        if scope is not None:
            raise IRError(f"cannot move {scope.name} into its own region")
        for op in ops:
            for use in chain.from_iterable(result.uses for result in op.results):
                top: Optional[Operation] = use.operation
                while top is not None and top.parent is not block:
                    top = top.parent_op()
                if top is None or id(top) not in moved:
                    raise IRError(f"moving {op.name} would strand its use by "
                                  f"{use.operation.name}, which stays behind")
        del block._ops[start:start + len(ops)]
        for op in ops:
            op.parent = self
        self._ops.extend(ops)
        EPOCH[0] = next(MUTATIONS)
        if value_map:
            for inner in chain.from_iterable(
                    op.walk() if op.regions else (op,) for op in ops):
                for index, operand in enumerate(inner._operands):
                    if operand in value_map:
                        inner.set_operand(index, value_map[operand])

    # -- queries ----------------------------------------------------------

    def walk(self) -> Iterator[Operation]:
        for op in list(self._ops):
            yield from op.walk()

    def parent_op(self) -> Optional[Operation]:
        return self.parent.parent if self.parent is not None else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Block with {len(self._ops)} ops, {len(self.args)} args>"


class Region:
    """A list of blocks owned by an operation."""

    def __init__(self, blocks: Sequence[Block] = ()):
        self.blocks: List[Block] = []
        self.parent: Optional[Operation] = None
        for block in blocks:
            self._add_block(block)

    @property
    def block(self) -> Block:
        """Convenience accessor for single-block regions."""
        if len(self.blocks) != 1:
            raise IRError(f"region has {len(self.blocks)} blocks, expected exactly 1")
        return self.blocks[0]

    def add_block(self, block: Block) -> None:
        self._add_block(block)
        EPOCH[0] = next(MUTATIONS)

    def _add_block(self, block: Block) -> None:
        if block.parent is not None:
            raise IRError("block is already attached to a region")
        block.parent = self
        self.blocks.append(block)

    def walk(self) -> Iterator[Operation]:
        for block in self.blocks:
            yield from block.walk()

    def clone(self, value_map: Optional[Dict[SSAValue, SSAValue]] = None) -> "Region":
        if value_map is None:
            value_map = {}
        new_region = Region()
        # First create all blocks and their arguments so forward references work.
        for block in self.blocks:
            new_block = Block(arg_types=[a.type for a in block.args])
            for old_arg, new_arg in zip(block.args, new_block.args):
                value_map[old_arg] = new_arg
                new_arg.name_hint = old_arg.name_hint
            new_region.add_block(new_block)
        for block, new_block in zip(self.blocks, new_region.blocks):
            for op in block.ops:
                new_block.add_op(op.clone(value_map))
        return new_region

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Region with {len(self.blocks)} blocks>"


__all__ = ["Operation", "Block", "Region", "IRError", "VerifyException", "OP_CLASSES"]
