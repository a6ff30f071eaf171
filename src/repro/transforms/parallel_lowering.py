"""Lowerings of ``scf.parallel`` to OpenMP and GPU targets.

These reproduce the existing MLIR passes the paper leans on in §3:

* ``convert-scf-to-openmp`` — wraps each top-level ``scf.parallel`` in an
  ``omp.parallel`` region containing an ``omp.wsloop`` with the same bounds;
* ``scf-parallel-loop-tiling{parallel-loop-tile-sizes=...}`` — records the
  tile sizes on the loop (used by the GPU mapping to choose thread-block
  shapes; the paper notes these had to be found empirically);
* ``convert-parallel-loops-to-gpu`` + ``gpu-kernel-outlining`` — outline
  each ``scf.parallel`` into a ``gpu.func`` kernel launched over a grid/block
  decomposition of the iteration space (the grid/block split is the whole
  mapping, so ``gpu-map-parallel-loops`` is an accepted name that does
  nothing here).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dialects import arith, gpu, omp, scf
from ..dialects.builtin import ModuleOp
from ..dialects.func import FuncOp
from ..ir.attributes import DenseArrayAttr
from ..ir.builder import Builder
from ..ir.operation import Block, Operation, Region
from ..ir.pass_manager import ModulePass, register_pass
from ..ir.ssa import SSAValue
from ..ir.types import index

#: The paper's Listing 4 parallel-loop tile sizes (thread-block shape).
TILE_SIZES = (32, 32, 1)

# ---------------------------------------------------------------------------
# scf.parallel -> OpenMP
# ---------------------------------------------------------------------------


@register_pass
class ConvertSCFToOpenMPPass(ModulePass):
    """``convert-scf-to-openmp`` — multithreaded CPU execution (Figures 3/4).

    Takes no options, like the paper's stock pass: the runtime's tiled
    parallel executor splits each ``omp.wsloop``'s outermost loop dimension
    statically across threads.
    """

    name = "convert-scf-to-openmp"

    def apply(self, module: Operation) -> None:
        for parallel in [op for op in module.walk() if isinstance(op, scf.ParallelOp)]:
            if self._enclosing_parallel(parallel) is not None:
                continue  # only map the outermost parallel loop to threads
            self._convert(parallel)

    @staticmethod
    def _enclosing_parallel(op: Operation) -> Optional[Operation]:
        parent = op.parent_op()
        while parent is not None:
            if isinstance(parent, (scf.ParallelOp, omp.WsLoopOp)):
                return parent
            parent = parent.parent_op()
        return None

    def _convert(self, parallel: scf.ParallelOp) -> None:
        block = parallel.parent_block()
        if block is None:
            return
        wsloop = omp.WsLoopOp(
            list(parallel.lower_bounds),
            list(parallel.upper_bounds),
            list(parallel.steps),
        )
        # Move the loop body over, then replace its scf.yield terminator with
        # omp.yield.
        ws_body = wsloop.body.block
        ws_body.take_ops(parallel.body,
                         dict(zip(parallel.body.block.args, ws_body.args)))
        if ws_body.last_op is not None and ws_body.last_op.name == "scf.yield":
            ws_body.last_op.erase(safe=False)
        ws_body.add_op(omp.YieldOp([]))

        region = Region([Block(ops=[wsloop, omp.TerminatorOp()])])
        parallel_region = omp.ParallelOp(region)
        block.insert_op_before(parallel_region, parallel)
        parallel.erase(safe=False)


# ---------------------------------------------------------------------------
# scf-parallel-loop-tiling
# ---------------------------------------------------------------------------


@register_pass
class ParallelLoopTilingPass(ModulePass):
    """``scf-parallel-loop-tiling{parallel-loop-tile-sizes=32,32,1}``.

    The tile sizes are recorded on each ``scf.parallel`` and consumed by the
    GPU mapping below to size thread blocks; the paper reports both
    performance sensitivity and runtime failures for badly chosen values.
    """

    name = "scf-parallel-loop-tiling"

    def __init__(self, parallel_loop_tile_sizes: Sequence[int] = TILE_SIZES):
        if isinstance(parallel_loop_tile_sizes, int):
            parallel_loop_tile_sizes = (parallel_loop_tile_sizes,)
        if any(isinstance(t, bool) or int(t) < 1
               for t in parallel_loop_tile_sizes):
            raise ValueError(f"tile sizes must be integers >= 1, got "
                             f"{parallel_loop_tile_sizes}")
        self.tile_sizes = tuple(int(t) for t in parallel_loop_tile_sizes)

    def apply(self, module: Operation) -> None:
        for op in module.walk():
            if isinstance(op, scf.ParallelOp):
                sizes = list(self.tile_sizes)[: op.rank]
                while len(sizes) < op.rank:
                    sizes.append(1)
                op.set_attr("tile_sizes", DenseArrayAttr(sizes))


# ---------------------------------------------------------------------------
# scf.parallel -> gpu.launch_func (+ kernel outlining)
# ---------------------------------------------------------------------------


@register_pass
class ConvertParallelLoopsToGpuPass(ModulePass):
    """``convert-parallel-loops-to-gpu`` combined with ``gpu-kernel-outlining``.

    Each outermost ``scf.parallel`` becomes a ``gpu.func`` kernel inside a
    ``gpu.module``; the launch site computes per-thread indices from block and
    thread ids, guards against the domain bounds and executes the loop body.
    """

    name = "convert-parallel-loops-to-gpu"

    def __init__(self):
        self.outlined: List[str] = []

    def apply(self, module: Operation) -> None:
        if not isinstance(module, ModuleOp):
            return
        gpu_module = None
        counter = 0
        for func_op in [op for op in module.walk() if isinstance(op, FuncOp)]:
            if func_op.is_declaration:
                continue
            loops = [
                op for op in func_op.walk()
                if isinstance(op, scf.ParallelOp)
                and ConvertSCFToOpenMPPass._enclosing_parallel(op) is None
            ]
            for parallel in loops:
                if gpu_module is None:
                    gpu_module = gpu.GPUModuleOp()
                    module.add_op(gpu_module)
                kernel_name = f"{func_op.sym_name}_kernel_{counter}"
                counter += 1
                self._outline(parallel, gpu_module, kernel_name)
                self.outlined.append(kernel_name)

    # ------------------------------------------------------------------

    def _outline(self, parallel: scf.ParallelOp, gpu_module: gpu.GPUModuleOp,
                 kernel_name: str) -> None:
        block = parallel.parent_block()
        if block is None:
            return
        rank = parallel.rank
        lowers = [self._constant_of(v) for v in parallel.lower_bounds]
        uppers = [self._constant_of(v) for v in parallel.upper_bounds]
        if any(v is None for v in lowers + uppers):
            return  # dynamic bounds: keep the loop on the host
        extents = [u - l for l, u in zip(lowers, uppers)]
        tile_attr = parallel.get_attr_or_none("tile_sizes")
        tiles = list(tile_attr.as_tuple() if tile_attr is not None else TILE_SIZES)
        while len(tiles) < 3:
            tiles.append(1)
        block_size = [max(1, min(tiles[d], extents[d] if d < rank else 1)) for d in range(3)]
        grid_size = [
            max(1, -(-extents[d] // block_size[d])) if d < rank else 1 for d in range(3)
        ]

        # External values used by the loop body become kernel arguments.
        externals = self._external_values(parallel)
        kernel = gpu.GPUFuncOp(kernel_name, [v.type for v in externals])
        gpu_module.body.block.add_op(kernel)
        kbody = kernel.entry_block
        value_map: Dict[SSAValue, SSAValue] = {
            ext: arg for ext, arg in zip(externals, kbody.args)
        }

        builder = Builder.at_end(kbody)
        dims = ("x", "y", "z")
        ivs: List[SSAValue] = []
        guards: List[SSAValue] = []
        for d in range(rank):
            bid = builder.insert(gpu.BlockIdOp(dims[d])).results[0]
            bdim = builder.insert(gpu.BlockDimOp(dims[d])).results[0]
            tid = builder.insert(gpu.ThreadIdOp(dims[d])).results[0]
            base = builder.insert(arith.MuliOp(bid, bdim)).results[0]
            linear = builder.insert(arith.AddiOp(base, tid)).results[0]
            lower = builder.insert(arith.ConstantOp.from_int(lowers[d], index)).results[0]
            iv = builder.insert(arith.AddiOp(linear, lower)).results[0]
            upper = builder.insert(arith.ConstantOp.from_int(uppers[d], index)).results[0]
            in_range = builder.insert(arith.CmpiOp("slt", iv, upper)).results[0]
            ivs.append(iv)
            guards.append(in_range)
        guard = guards[0]
        for extra in guards[1:]:
            guard = builder.insert(arith.AndIOp(guard, extra)).results[0]

        guarded = builder.insert(scf.IfOp(guard))
        then_block = guarded.then_block
        for arg, iv in zip(parallel.body.block.args, ivs):
            value_map[arg] = iv
        body_ops = parallel.body.block.ops
        if body_ops and body_ops[-1].name == "scf.yield":
            body_ops = body_ops[:-1]
        then_block.take_ops(body_ops, value_map)
        then_block.add_op(scf.YieldOp([]))
        builder.insert(gpu.ReturnOp())

        launch = gpu.LaunchFuncOp(kernel_name, grid_size, block_size, externals)
        block.insert_op_before(launch, parallel)
        parallel.erase(safe=False)

    @staticmethod
    def _constant_of(value: SSAValue) -> Optional[int]:
        from ..ir.ssa import OpResult

        if isinstance(value, OpResult) and isinstance(value.op, arith.ConstantOp):
            return int(value.op.literal)
        return None

    @staticmethod
    def _external_values(parallel: scf.ParallelOp) -> List[SSAValue]:
        inside = set()
        for op in parallel.walk():
            inside.update(id(r) for r in op.results)
            for region in op.regions:
                for blk in region.blocks:
                    inside.update(id(a) for a in blk.args)
        externals: List[SSAValue] = []
        seen = set()
        for op in parallel.body.walk():
            for operand in op.operands:
                if id(operand) in inside or id(operand) in seen:
                    continue
                seen.add(id(operand))
                externals.append(operand)
        return externals


__all__ = [
    "ConvertSCFToOpenMPPass",
    "ParallelLoopTilingPass",
    "ConvertParallelLoopsToGpuPass",
]
