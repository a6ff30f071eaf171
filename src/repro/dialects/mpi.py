"""The MPI dialect (xDSL): point-to-point message passing and barriers.

The DMP-to-MPI lowering turns ``dmp.halo_swap`` into non-blocking
isend/irecv pairs plus waits; the simulated MPI runtime
(:mod:`repro.runtime.mpi_runtime`) then executes these between in-process
ranks with real data movement.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from ..ir.attributes import IntegerAttr
from ..ir.context import Dialect
from ..ir.operation import Operation
from ..ir.ssa import SSAValue
from ..ir.traits import HasMemoryEffect
from ..ir.types import TypeAttribute, i32, i64


class RequestType(TypeAttribute):
    """``!mpi.request`` — handle for a pending non-blocking operation."""

    name = "mpi.request"

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def print(self) -> str:
        return "!mpi.request"


class StatusType(TypeAttribute):
    """``!mpi.status`` — completion status of a receive."""

    name = "mpi.status"

    def _key(self) -> Tuple[Any, ...]:
        return ()

    def print(self) -> str:
        return "!mpi.status"


class InitOp(Operation):
    """``mpi.init``."""

    name = "mpi.init"
    traits = (HasMemoryEffect,)

    def __init__(self):
        super().__init__()


class FinalizeOp(Operation):
    """``mpi.finalize``."""

    name = "mpi.finalize"
    traits = (HasMemoryEffect,)

    def __init__(self):
        super().__init__()


class CommRankOp(Operation):
    """``mpi.comm.rank`` — this process's rank in MPI_COMM_WORLD."""

    name = "mpi.comm.rank"

    def __init__(self):
        super().__init__(result_types=[i32])


class CommSizeOp(Operation):
    """``mpi.comm.size`` — number of ranks in MPI_COMM_WORLD."""

    name = "mpi.comm.size"

    def __init__(self):
        super().__init__(result_types=[i32])


class _P2POp(Operation):
    """Shared structure of send/recv style operations.

    Operands: buffer (memref / ref), destination-or-source rank (i32), tag (i32).
    """

    def __init__(self, buffer: SSAValue, peer: SSAValue, tag: SSAValue,
                 result_types: Sequence[TypeAttribute] = ()):
        super().__init__(operands=[buffer, peer, tag], result_types=result_types)

    @property
    def buffer(self) -> SSAValue:
        return self.operands[0]

    @property
    def peer(self) -> SSAValue:
        return self.operands[1]

    @property
    def tag(self) -> SSAValue:
        return self.operands[2]


class SendOp(_P2POp):
    """``mpi.send`` — blocking send."""

    name = "mpi.send"
    traits = (HasMemoryEffect,)


class RecvOp(_P2POp):
    """``mpi.recv`` — blocking receive."""

    name = "mpi.recv"
    traits = (HasMemoryEffect,)


class ISendOp(_P2POp):
    """``mpi.isend`` — non-blocking send returning a request."""

    name = "mpi.isend"
    traits = (HasMemoryEffect,)

    def __init__(self, buffer: SSAValue, peer: SSAValue, tag: SSAValue):
        super().__init__(buffer, peer, tag, result_types=[RequestType()])


class IRecvOp(_P2POp):
    """``mpi.irecv`` — non-blocking receive returning a request."""

    name = "mpi.irecv"
    traits = (HasMemoryEffect,)

    def __init__(self, buffer: SSAValue, peer: SSAValue, tag: SSAValue):
        super().__init__(buffer, peer, tag, result_types=[RequestType()])


class WaitOp(Operation):
    """``mpi.wait`` — block until one request completes."""

    name = "mpi.wait"
    traits = (HasMemoryEffect,)

    def __init__(self, request: SSAValue):
        super().__init__(operands=[request])


class WaitAllOp(Operation):
    """``mpi.waitall`` — block until all given requests complete."""

    name = "mpi.waitall"
    traits = (HasMemoryEffect,)

    def __init__(self, requests: Sequence[SSAValue]):
        super().__init__(operands=requests)


class BarrierOp(Operation):
    """``mpi.barrier``."""

    name = "mpi.barrier"
    traits = (HasMemoryEffect,)

    def __init__(self):
        super().__init__()


def _parse_request(parser) -> RequestType:
    return RequestType()


def _parse_status(parser) -> StatusType:
    return StatusType()


MPI = Dialect(
    "mpi",
    [
        InitOp,
        FinalizeOp,
        CommRankOp,
        CommSizeOp,
        SendOp,
        RecvOp,
        ISendOp,
        IRecvOp,
        WaitOp,
        WaitAllOp,
        BarrierOp,
    ],
    type_parsers={"request": _parse_request, "status": _parse_status},
)

__all__ = [
    "RequestType",
    "StatusType",
    "InitOp",
    "FinalizeOp",
    "CommRankOp",
    "CommSizeOp",
    "SendOp",
    "RecvOp",
    "ISendOp",
    "IRecvOp",
    "WaitOp",
    "WaitAllOp",
    "BarrierOp",
    "MPI",
]
