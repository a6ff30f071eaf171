"""The MPI dialect (xDSL): non-blocking point-to-point message passing.

The DMP-to-MPI lowering turns ``dmp.halo_swap`` into non-blocking
isend/irecv pairs plus one waitall; the simulated MPI runtime
(:mod:`repro.runtime.mpi_runtime`) then executes these between in-process
ranks with real data movement.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from ..ir.operation import Operation
from ..ir.ssa import SSAValue
from ..ir.types import TYPE_PARSERS, TypeAttribute


class RequestType(TypeAttribute):
    """``!mpi.request`` — handle for a pending non-blocking operation."""

    name = "mpi.request"

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def print(self) -> str:
        return "!mpi.request"


class _P2POp(Operation):
    """Shared structure of isend/irecv.

    Operands: buffer (memref / ref), destination-or-source rank (i32), tag
    (i32).  The result is the request a ``mpi.waitall`` completes.
    """

    def __init__(self, buffer: SSAValue, peer: SSAValue, tag: SSAValue):
        super().__init__(operands=[buffer, peer, tag], result_types=[RequestType()])


class ISendOp(_P2POp):
    """``mpi.isend`` — non-blocking send returning a request."""

    name = "mpi.isend"


class IRecvOp(_P2POp):
    """``mpi.irecv`` — non-blocking receive returning a request."""

    name = "mpi.irecv"


class WaitAllOp(Operation):
    """``mpi.waitall`` — block until all given requests complete."""

    name = "mpi.waitall"

    def __init__(self, requests: Sequence[SSAValue]):
        super().__init__(operands=requests)


def _parse_request(parser) -> RequestType:
    return RequestType()


TYPE_PARSERS["mpi.request"] = _parse_request

__all__ = [
    "RequestType",
    "ISendOp",
    "IRecvOp",
    "WaitAllOp",
]
