"""Named pass pipelines for each compilation target.

The paper drives ``mlir-opt`` with long textual pipelines (its Listing 4 shows
the GPU one).  The same style works here through
:class:`repro.ir.PassManager.add_pipeline`, and the strings below keep the
paper's pass names verbatim as documentation of its flow.  Every pass in this
project is a module pass; nested pass scoping (``func.func(...)``) is not
parsed.  Each target's pipeline lowers the stencil dialect through
``convert-stencil-to-scf``, as the paper's flow does, so the runtime never
executes a ``stencil.*`` op.
"""

from __future__ import annotations

from ..ir.pass_manager import ACCEPTED_PASSES
from .parallel_lowering import TILE_SIZES

#: MLIR passes the pipelines below name that have nothing to do on this
#: substrate: their effect is irrelevant to the simulated execution or folded
#: into an implemented pass.  ``PassManager`` parses and records them but
#: schedules nothing.
ACCEPTED_PASSES.update((
    "scf-parallel-loop-specialization",
    "test-math-algebraic-simplification",
    "test-expand-math",
    "gpu-map-parallel-loops",
    "fold-memref-alias-ops",
    "finalize-memref-to-llvm",
    "lower-affine",
    "gpu-kernel-outlining",
    "gpu-async-region",
    "convert-arith-to-llvm",
    "convert-scf-to-cf",
    "convert-cf-to-llvm",
))

#: Discovery + extraction applied to the Flang-produced FIR (run in "xDSL").
FIR_STENCIL_PIPELINE = "discover-stencils,extract-stencils"

#: Stencil module lowering for single-core CPU execution.  It runs no
#: ``canonicalize,cse``: the lowering builds each constant once, so they
#: would find nothing to fold or merge.
CPU_PIPELINE = (
    "convert-stencil-to-scf{target=cpu},"
    "scf-parallel-loop-specialization"
)

#: Stencil module lowering for multi-threaded CPU execution (OpenMP).
OPENMP_PIPELINE = (
    "convert-stencil-to-scf{target=cpu},"
    "convert-scf-to-openmp"
)

#: The paper's GPU pipeline (Listing 4), flattened and run on the stencil
#: module: stencil → scf (coalesced parallel loops), tiling, GPU mapping,
#: kernel outlining, memref/arith/scf lowering stand-ins and cast reconciliation.
GPU_PIPELINE = (
    "convert-stencil-to-scf{target=gpu},"
    "test-math-algebraic-simplification,"
    "scf-parallel-loop-tiling{parallel-loop-tile-sizes="
    f"{','.join(map(str, TILE_SIZES))}}},"
    "canonicalize,"
    "test-expand-math,"
    "gpu-map-parallel-loops,"
    "convert-parallel-loops-to-gpu,"
    "fold-memref-alias-ops,"
    "finalize-memref-to-llvm{index-bitwidth=64 use-opaque-pointers=false},"
    "lower-affine,"
    "gpu-kernel-outlining,"
    "gpu-async-region,"
    "canonicalize,"
    "convert-arith-to-llvm{index-bitwidth=64},"
    "convert-scf-to-cf,"
    "convert-cf-to-llvm{index-bitwidth=64},"
    "reconcile-unrealized-casts"
)

#: Distributed-memory lowering via the DMP and MPI dialects, then each rank's
#: loops as on a single core; the dmp backend adds ``{grid=PxQ}`` from its
#: options.
DMP_PIPELINE = (
    "convert-stencil-to-dmp,"
    "convert-dmp-to-mpi,"
    "convert-stencil-to-scf{target=cpu}"
)


PIPELINES = {
    "fir-stencil": FIR_STENCIL_PIPELINE,
    "cpu": CPU_PIPELINE,
    "openmp": OPENMP_PIPELINE,
    "gpu": GPU_PIPELINE,
    "dmp": DMP_PIPELINE,
}


__all__ = [
    "FIR_STENCIL_PIPELINE",
    "CPU_PIPELINE",
    "OPENMP_PIPELINE",
    "GPU_PIPELINE",
    "DMP_PIPELINE",
    "PIPELINES",
]
