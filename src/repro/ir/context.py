"""Dialect and context registries.

A :class:`Context` knows every registered dialect, and hence how to map a
textual operation name back to its Python class and how to parse dialect types
(``!fir.ref<...>``, ``!stencil.temp<...>`` and friends).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

from .operation import Operation


class Dialect:
    """A named collection of operations and type parsers."""

    def __init__(
        self,
        name: str,
        operations: List[Type[Operation]] = (),
        type_parsers: Optional[Dict[str, Callable]] = None,
    ):
        self.name = name
        self.operations: List[Type[Operation]] = list(operations)
        #: Maps a type mnemonic (e.g. ``"ref"`` for ``!fir.ref<...>``) to a
        #: callable ``(parser) -> TypeAttribute``.
        self.type_parsers: Dict[str, Callable] = dict(type_parsers or {})

    def register_operation(self, op_class: Type[Operation]) -> None:
        self.operations.append(op_class)


class Context:
    """Registry of dialects used when parsing or verifying IR."""

    def __init__(self):
        self.dialects: Dict[str, Dialect] = {}
        self._op_classes: Dict[str, Type[Operation]] = {}

    # -- registration --------------------------------------------------------

    def register_dialect(self, dialect: Dialect) -> None:
        if dialect.name in self.dialects:
            raise ValueError(f"dialect '{dialect.name}' registered twice")
        self.dialects[dialect.name] = dialect
        for op_class in dialect.operations:
            self.register_op(op_class)

    def register_op(self, op_class: Type[Operation]) -> None:
        existing = self._op_classes.get(op_class.name)
        if existing is not None and existing is not op_class:
            raise ValueError(f"operation '{op_class.name}' registered twice")
        self._op_classes[op_class.name] = op_class

    # -- lookup ----------------------------------------------------------------

    def get_op_class(self, name: str) -> Optional[Type[Operation]]:
        return self._op_classes.get(name)

    def get_type_parser(self, dialect_name: str, mnemonic: str) -> Optional[Callable]:
        dialect = self.dialects.get(dialect_name)
        if dialect is None:
            return None
        return dialect.type_parsers.get(mnemonic)


def default_context() -> Context:
    """A context with every dialect shipped by this package registered."""
    # Imported lazily to avoid a circular import at package load time.
    from ..dialects import register_all_dialects

    ctx = Context()
    register_all_dialects(ctx)
    return ctx


__all__ = ["Dialect", "Context", "default_context"]
