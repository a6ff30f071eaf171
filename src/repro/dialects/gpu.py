"""The ``gpu`` dialect: kernels, device memory and host/device transfers.

The paper's GPU flow (§4.3) relies on two data-management strategies that are
both representable here:

* the *initial* approach: ``gpu.host_register`` on every stencil array, which
  pages data across PCIe on demand, and
* the *optimised* approach produced by the bespoke data-management pass:
  explicit ``gpu.alloc`` / ``gpu.memcpy`` / ``gpu.dealloc`` calls inserted
  around the stencil invocations.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.attributes import DenseArrayAttr, StringAttr, SymbolRefAttr
from ..ir.context import Dialect
from ..ir.operation import Block, Operation, Region, VerifyException
from ..ir.ssa import SSAValue
from ..ir.traits import (
    IsTerminator,
    IsolatedFromAbove,
    SingleBlockRegion,
    SymbolOpInterface,
)
from ..ir.types import MemRefType, TypeAttribute, index


class GPUModuleOp(Operation):
    """``gpu.module`` — container of device kernels.  Kernels are looked up
    by their own ``sym_name``; the container needs none."""

    name = "gpu.module"
    traits = (SingleBlockRegion, IsolatedFromAbove)

    def __init__(self, ops: Sequence[Operation] = ()):
        super().__init__(regions=[Region([Block(ops=ops)])])


class GPUFuncOp(Operation):
    """``gpu.func`` — a device kernel."""

    name = "gpu.func"
    traits = (IsolatedFromAbove, SymbolOpInterface)

    def __init__(self, sym_name: str, arg_types: Sequence[TypeAttribute]):
        region = Region([Block(arg_types=arg_types)])
        super().__init__(attributes={"sym_name": StringAttr(sym_name)},
                         regions=[region])

    @property
    def entry_block(self) -> Block:
        return self.body.block


class ReturnOp(Operation):
    """``gpu.return`` — terminator of device kernels."""

    name = "gpu.return"
    traits = (IsTerminator,)

    def __init__(self):
        super().__init__()


class LaunchFuncOp(Operation):
    """``gpu.launch_func`` — launch a kernel with a static grid/block shape.

    Grid and block dimensions are carried as attributes (the sizes are known
    after tiling); operands are the kernel arguments.
    """

    name = "gpu.launch_func"

    def __init__(
        self,
        kernel: str,
        grid_size: Sequence[int],
        block_size: Sequence[int],
        arguments: Sequence[SSAValue] = (),
    ):
        attributes = {
            "kernel": SymbolRefAttr(kernel),
            "grid_size": DenseArrayAttr(grid_size),
            "block_size": DenseArrayAttr(block_size),
        }
        super().__init__(operands=arguments, attributes=attributes)

    @property
    def grid_size(self) -> Sequence[int]:
        return self.get_attr("grid_size").as_tuple()  # type: ignore[union-attr]

    @property
    def block_size(self) -> Sequence[int]:
        return self.get_attr("block_size").as_tuple()  # type: ignore[union-attr]

    def verify_(self) -> None:
        if len(self.grid_size) != 3 or len(self.block_size) != 3:
            raise VerifyException(
                "gpu.launch_func: grid_size and block_size must have 3 entries"
            )


class AllocOp(Operation):
    """``gpu.alloc`` — allocate device memory."""

    name = "gpu.alloc"

    def __init__(self, result_type: MemRefType, dynamic_sizes: Sequence[SSAValue] = ()):
        super().__init__(operands=dynamic_sizes, result_types=[result_type])


class DeallocOp(Operation):
    """``gpu.dealloc`` — free device memory."""

    name = "gpu.dealloc"

    def __init__(self, memref: SSAValue):
        super().__init__(operands=[memref])


class MemcpyOp(Operation):
    """``gpu.memcpy`` — copy between host and device memrefs (dst, src)."""

    name = "gpu.memcpy"

    def __init__(self, dst: SSAValue, src: SSAValue):
        super().__init__(operands=[dst, src])


class HostRegisterOp(Operation):
    """``gpu.host_register`` — page-lock host memory and make it device
    accessible (the paper's *initial*, slow, data strategy)."""

    name = "gpu.host_register"

    def __init__(self, memref: SSAValue):
        super().__init__(operands=[memref])


class _IdOp(Operation):
    """Base of thread/block id and dim queries; the dimension is x, y or z."""

    def __init__(self, dimension: str):
        if dimension not in ("x", "y", "z"):
            raise ValueError("gpu id dimension must be 'x', 'y' or 'z'")
        super().__init__(
            result_types=[index], attributes={"dimension": StringAttr(dimension)}
        )


class ThreadIdOp(_IdOp):
    name = "gpu.thread_id"


class BlockIdOp(_IdOp):
    name = "gpu.block_id"


class BlockDimOp(_IdOp):
    name = "gpu.block_dim"


GPU = Dialect(
    "gpu",
    [
        GPUModuleOp,
        GPUFuncOp,
        ReturnOp,
        LaunchFuncOp,
        AllocOp,
        DeallocOp,
        MemcpyOp,
        HostRegisterOp,
        ThreadIdOp,
        BlockIdOp,
        BlockDimOp,
    ],
)

__all__ = [
    "GPUModuleOp",
    "GPUFuncOp",
    "ReturnOp",
    "LaunchFuncOp",
    "AllocOp",
    "DeallocOp",
    "MemcpyOp",
    "HostRegisterOp",
    "ThreadIdOp",
    "BlockIdOp",
    "BlockDimOp",
    "GPU",
]
