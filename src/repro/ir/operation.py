"""Operations, blocks and regions — the structural core of the IR.

The three classes are mutually recursive (operations contain regions, regions
contain blocks, blocks contain operations) and therefore live in one module.
``repro.ir`` re-exports them individually.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import (
    Callable,
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
from .ssa import (
    CHANGED,
    MOVED,
    BlockArgument,
    OpResult,
    SSAValue,
    Use,
    mark,
)


class IRError(Exception):
    """Base class for IR construction / manipulation errors."""


class VerifyException(IRError):
    """Raised when an operation or module fails verification."""


_BLOCKS, _OPS = attrgetter("blocks"), attrgetter("ops")

#: Operation name -> class: every subclass that sets its own :attr:`name`
#: enters as its dialect module defines it (:meth:`Operation.__init_subclass__`).
OP_CLASSES: Dict[str, Type["Operation"]] = {}


def _changed(op: "Operation") -> None:
    """Mark ``op`` changed, and the last operation of each of its blocks:
    a terminator's hook may read its parent (``func.return`` the signature)."""
    mark(op, CHANGED)
    for region in op.regions:
        for block in region.blocks:
            if block._ops:
                mark(block._ops[-1], CHANGED)


def _mark_users(ops: Iterable["Operation"]) -> None:
    """Mark changed every user of a result of ``ops``: the definition moved.
    A user marked moved is re-checked whole anyway."""
    for op in ops:
        for result in op.results:
            for use in result.uses:
                if not use.operation._dirty & MOVED:
                    mark(use.operation, CHANGED)


def _block_changed(block: "Block", last: Optional["Operation"] = None) -> None:
    """``block`` gained or lost an operation: re-check its parent op and,
    when given, ``last``, which just became or stopped being its last op.
    Nothing to do if that parent is to be checked whole, or there is none
    yet (a block or region joins an op new, or marks the op moved)."""
    region = block.parent
    parent = region.parent if region is not None else None
    if parent is None or parent._dirty & MOVED:
        return
    # A marked op's ancestors are marked: no climb, and no call (hot path).
    if parent._dirty:
        parent._dirty |= CHANGED
    else:
        mark(parent, CHANGED)
    if last is not None:
        if last._dirty:
            last._dirty |= CHANGED
        else:
            mark(last, CHANGED)


def _left(op: "Operation") -> None:
    """``op`` left its block: re-check all of it wherever it goes, and the
    users of what it defines, values nested in it included.  (An op that
    enters a block need not look for users: a use of a value from outside
    the root stays marked, see :func:`_recheck`.)"""
    op._dirty |= MOVED
    if op.regions:
        _mark_users(op.walk())
    else:
        for result in op.results:
            if result.uses:
                _mark_users((op,))
                break


def _entered(block: "Block", op: "Operation") -> None:
    """``op`` was just put in ``block``."""
    op._dirty |= MOVED
    region = block.parent
    if region is None or region.parent is None or region.parent._dirty & MOVED:
        return  # the common case, building new IR: as _block_changed, sooner
    ops = block._ops
    _block_changed(block, ops[-2] if ops[-1] is op and len(ops) > 1 else None)


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
    # ``_dirty`` holds the marks of :mod:`repro.ir.ssa` (0: verified, and
    # nothing in it changed since) and ``_count`` the number of operations
    # in it, as its last :meth:`verify` counted: Python fields, never IR
    # attributes.
    __slots__ = ("_operands", "_uses", "results", "attributes", "regions",
                 "parent", "_dirty", "_count", "__dict__")

    #: The ``verify_trait`` functions of :attr:`traits` and whether they hold
    #: ``IsolatedFromAbove``: looked up once per class, as it is defined.
    _trait_verifiers: Tuple[Callable[["Operation"], None], ...] = ()
    _isolated = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        from .traits import IsolatedFromAbove

        cls._trait_verifiers = tuple(filter(None, (
            getattr(trait, "verify_trait", None) for trait in cls.traits)))
        cls._isolated = IsolatedFromAbove in cls.traits
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
        self._dirty = MOVED  # never verified
        self._count = 1

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
        _changed(self)

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
        if self.regions:
            _changed(self)

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
        _changed(self)

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
        _changed(self)

    def remove_attr(self, name: str) -> Optional[Attribute]:
        """Drop attribute ``name``; returns its value (``None`` if absent)."""
        _changed(self)
        return self.attributes.pop(name, None)

    # ------------------------------------------------------------------
    # Region management
    # ------------------------------------------------------------------

    def add_region(self, region: "Region") -> None:
        self._add_region(region)
        mark(self, MOVED)  # what the region holds was never checked here

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
        block = self.parent
        if block is not None:
            was_last = block._ops[-1] is self
            block._ops.remove(self)
            self.parent = None
            _left(self)
            _block_changed(block, block._ops[-1] if was_last and block._ops else None)
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
        block = self.parent
        if block is not None:
            was_last = block._ops[-1] is self
            block._ops.remove(self)
            self.parent = None
            _block_changed(block, block._ops[-1] if was_last and block._ops else None)
        # Each block is emptied last op first, so a use of a result left
        # when its op goes is the use of an op that stays: it is marked.
        doomed = [self]
        try:
            while doomed:
                op = doomed.pop()
                op._dirty = MOVED  # verified again only as a new root
                for operand, use in zip(op._operands, op._uses):
                    del operand.uses[use]
                op._operands = []
                op._uses = []
                for result in op.results:
                    if result.uses:
                        _mark_users((op,))
                        break
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
        """This top-level root passed :meth:`verify` and nothing in it
        changed since (a nested operation is verified with its root)."""
        return self.parent is None and not self._dirty

    def verify(self) -> int:
        """Verify this operation and everything nested within it; returns the
        number of operations in it.

        It checks the structure — every operand slot's use is registered on
        its value, every region / block / operation points at its parent —
        that each operand is visible where it is used, ``IsolatedFromAbove``
        (an operation may only use values defined inside its innermost
        isolated ancestor; the outermost violated ancestor is the one named),
        and each operation's trait verifiers and ``verify_`` hook, called
        once, in pre-order.  Visibility is MLIR's: a result is visible to the
        operations after its definer in its block and to all nested in them,
        a block argument to all in its block; a value defined outside the
        verified subtree stays legal.  One pre-order pass (:func:`_recheck`)
        makes each operation's checks as it meets it.

        A top-level root (``parent is None``) re-checks only what the marks of
        :mod:`repro.ir.ssa` name: a changed operation, a moved one with all it
        holds, and nothing under a clean operation, whose count it keeps; a
        clean root returns at once.  Given a root that passed before, that
        finds what a whole walk finds.  If that pass fails, the same pass runs
        again whole and raises the first fault it meets, so the message never
        depends on the marks.  A nested root is walked whole every time and
        leaves the marks to its top-level root.
        """
        top = self.parent is None
        if top and not self._dirty:
            return self._count
        try:
            return _recheck(self, top)
        except Exception as exc:
            if not top:
                raise  # the pass was whole
            self._dirty |= MOVED  # the marks under it went with the failed pass
            fault = exc
        _recheck(self, False)  # raises the first fault a whole pass meets
        raise fault

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} '{self.name}'>"


#: How :func:`_recheck` walks a block: each op by its marks, or all of it.
_PATH, _WHOLE = 1, 2
_PARENT = attrgetter("parent")


def _recheck(root: Operation, incremental: bool) -> int:
    """The checks of :meth:`Operation.verify` in one pre-order pass, each
    operation's as the pass meets it, raising the first fault it meets;
    ``incremental`` follows and clears the marks (a top-level root),
    otherwise the pass is whole.

    A value is visible where its block is one the pass is inside: it keeps
    the block of each value it met, and the blocks it is inside with the
    isolated operations above them.  A result enters when its definer is
    done, so its own regions do not see it; a value the pass never met is
    judged by where it is defined (:func:`_unseen`)."""
    #: The block of every value met so far.
    defined_in: Dict[SSAValue, Block] = {}
    #: The blocks the pass is inside -> their isolated ancestors, outermost
    #: first: one tuple per isolated operation, shared below it.
    open_blocks: Dict[Block, Tuple[Operation, ...]] = {}
    mode = _PATH if incremental and not root._dirty & MOVED else _WHOLE
    # One frame per open operation: (its children left, their isolated
    # ancestors outermost first, the pass's mode there, the operation, the
    # operations counted before it).  ``here``: the open block of the top
    # frame (None before its first checked child).
    frames: list = [(iter((root,)), (), mode, None, 0)]
    here = root.parent
    total = 0
    while frames:
        ops, isolated, mode, owner, start = frames[-1]
        for op in ops:
            whole = True
            if mode == _PATH:
                dirty = op._dirty
                if not dirty:  # clean: count it, and see what it defines
                    total += op._count
                    block = op.parent
                    for result in op.results:
                        defined_in[result] = block
                    continue
                whole = dirty & MOVED
            total += 1
            if incremental:
                op._dirty = 0
            block = op.parent
            if block is not here:
                open_blocks.pop(here, None)
                open_blocks[block] = isolated
                here = block
            if whole or dirty & CHANGED:
                for value, use in zip(op._operands, op._uses):
                    if use not in value.uses:
                        raise VerifyException(f"{op.name}: operand {use.index} "
                                              "does not have a registered use")
                    if open_blocks.get(defined_in.get(value)) is not isolated \
                            and _unseen(root, op, use.index, value, isolated,
                                        defined_in, open_blocks) and incremental:
                        # Legal while the definition stays out: where it
                        # lands decides, so the use stays marked and an
                        # insertion never looks for the users of what it brings.
                        mark(op, CHANGED)
                for verifier in op._trait_verifiers:
                    verifier(op)
                op.verify_()
            if not op.regions:
                for result in op.results:
                    defined_in[result] = block
                continue
            if op._isolated:
                isolated = isolated + (op,)
            children: List[Operation] = []
            for region in op.regions:
                if region.parent is not op:
                    raise VerifyException(f"{op.name}: region has wrong parent")
                for inner in region.blocks:
                    if inner.parent is not region:
                        raise VerifyException(
                            f"{op.name}: block has wrong parent region")
                    for arg in inner.args:
                        defined_in[arg] = inner
                    nested = inner._ops
                    if list(map(_PARENT, nested)).count(inner) != len(nested):
                        stray = next(c for c in nested if c.parent is not inner)
                        raise VerifyException(f"{op.name}: nested op {stray.name} "
                                              "has wrong parent block")
                    children += nested
            frames.append((iter(children), isolated, _WHOLE if whole else _PATH,
                           op, total - 1))
            here = None
            break
        else:
            frames.pop()
            open_blocks.pop(here, None)
            if owner is not None:
                owner._count = total - start
                here = owner.parent
                for result in owner.results:
                    defined_in[result] = here
    root._count = total
    return total


def _unseen(root: Operation, user: Operation, index: int, value: SSAValue,
            isolated: Tuple[Operation, ...], defined_in: Dict[SSAValue, Block],
            open_blocks: Dict[Block, Tuple[Operation, ...]]) -> bool:
    """Judge operand ``index`` of ``user``, ``value``, whose block is not open
    below ``user``'s innermost isolated ancestor: raise the fault, or return
    whether ``value`` is defined outside ``root`` (one climb of parents)."""
    block = defined_in.get(value)
    scope = open_blocks.get(block)
    if block is None:  # never met: outside the root, or not before the user
        result = isinstance(value, OpResult)
        block = value.op.parent if result else value.block
        owner = value.op if result else block.parent_op()
        if owner is None or not root.is_ancestor_of(owner):
            scope = ()
        elif block in open_blocks or block is root.parent:
            raise VerifyException(
                f"{user.name}: operand {index} is used before its definition")
    if scope is None:
        raise VerifyException(f"{user.name}: operand {index} is used outside "
                              "the region that defines it")
    if len(scope) < len(isolated):
        raise VerifyException(
            f"{isolated[len(scope)].name}: operation {user.name} references a "
            "value defined outside of an IsolatedFromAbove region")
    return value not in defined_in


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
        _block_changed(self)  # the parent's hook may count its arguments
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
        _entered(self, op)

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
        _entered(self, op)

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
        left = block._ops[-1] if block._ops and start == len(block._ops) else None
        last = self._ops[-1] if self._ops else None
        for op in ops:
            op.parent = self
            op._dirty |= MOVED
            if op.regions:  # its own users are among ``ops`` (checked above)
                _mark_users(op.walk(include_self=False))
        self._ops.extend(ops)
        _block_changed(block, left)
        _block_changed(self, last)
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
        if self.parent is not None:
            mark(self.parent, MOVED)  # what the block holds was never checked here

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
