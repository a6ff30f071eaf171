"""Runtime memory model shared by the interpreter and the sweeps it runs.

SSA values of reference-like types (``!fir.ref``, ``!fir.heap``,
``!fir.llvm_ptr``, ``memref``) evaluate to :class:`MemoryBuffer` objects
wrapping numpy storage; ``fir.coordinate_of`` produces :class:`ElementRef`
views of a single element.  Device-resident buffers used by the simulated GPU
carry a ``space`` tag so transfers can be accounted.  No stencil-dialect
value reaches the runtime: every backend lowers the stencil module to loops
over memrefs first.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

import numpy as np

from ..ir.types import FloatType, IndexType, IntegerType, TypeAttribute


def numpy_dtype_for(type: TypeAttribute) -> np.dtype:
    """Map an IR element type to the numpy dtype used for storage."""
    if isinstance(type, FloatType):
        return np.dtype(f"float{type.width}") if type.width >= 32 else np.dtype("float16")
    if isinstance(type, IntegerType):
        if type.width == 1:
            return np.dtype(bool)
        return np.dtype(f"int{max(type.width, 8)}")
    if isinstance(type, IndexType):
        return np.dtype("int64")
    raise TypeError(f"no numpy dtype for IR type {type.print()}")


class MemoryBuffer:
    """A block of storage: a scalar cell or an n-dimensional array.

    ``space`` is ``"host"`` or ``"device"``; the simulated GPU runtime uses it
    to track where data lives and account transfers.
    """

    __slots__ = ("data", "space", "label", "registered")

    def __init__(self, data: np.ndarray, space: str = "host", label: str = ""):
        self.data = data
        self.space = space
        self.label = label
        #: Set when ``gpu.host_register`` has been applied to this buffer.
        self.registered = False

    # -- construction -----------------------------------------------------

    @staticmethod
    def for_scalar(type: TypeAttribute, value: Union[int, float] = 0,
                   label: str = "") -> "MemoryBuffer":
        return MemoryBuffer(np.full((), value, dtype=numpy_dtype_for(type)), label=label)

    @staticmethod
    def for_array(shape: Sequence[int], element_type: TypeAttribute,
                  space: str = "host", label: str = "") -> "MemoryBuffer":
        data = np.zeros(tuple(int(s) for s in shape), dtype=numpy_dtype_for(element_type),
                        order="F")
        return MemoryBuffer(data, space=space, label=label)

    @staticmethod
    def wrap(array: np.ndarray, space: str = "host", label: str = "") -> "MemoryBuffer":
        return MemoryBuffer(np.asarray(array), space=space, label=label)

    # -- scalar access ------------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return self.data.ndim == 0

    def load(self):
        if not self.is_scalar:
            raise TypeError("load on an array buffer requires an ElementRef")
        return self.data[()]

    def store(self, value) -> None:
        if not self.is_scalar:
            raise TypeError("store on an array buffer requires an ElementRef")
        self.data[()] = value

    # -- misc -----------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def copy_from(self, other: "MemoryBuffer") -> None:
        np.copyto(self.data, other.data)

    def __repr__(self) -> str:  # pragma: no cover
        kind = "scalar" if self.is_scalar else f"array{self.data.shape}"
        return f"<MemoryBuffer {self.label or '?'} {kind} on {self.space}>"


class ElementRef:
    """The address of one element of an array buffer."""

    __slots__ = ("buffer", "indices")

    def __init__(self, buffer: MemoryBuffer, indices: Tuple[int, ...]):
        self.buffer = buffer
        self.indices = tuple(int(i) for i in indices)

    def load(self):
        return self.buffer.data[self.indices]

    def store(self, value) -> None:
        self.buffer.data[self.indices] = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ElementRef {self.buffer.label or '?'}{list(self.indices)}>"


class InterpreterError(Exception):
    """Raised when the interpreter meets IR it cannot execute."""


__all__ = [
    "MemoryBuffer",
    "ElementRef",
    "numpy_dtype_for",
    "InterpreterError",
]
