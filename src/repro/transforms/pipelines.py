"""Named pass pipelines for each compilation target.

The paper drives ``mlir-opt`` with long textual pipelines (its Listing 4 shows
the GPU one).  The same style works here through
:class:`repro.ir.PassManager.add_pipeline`, and the strings below keep the
paper's pass names verbatim as documentation of its flow.  Every pass in this
project is a module pass; nested pass scoping (``func.func(...)``) is not
parsed.
"""

from __future__ import annotations

from typing import Sequence

from ..ir.pass_manager import GLOBAL_PASS_REGISTRY

# Ensure every pass referenced by the pipelines below is registered.
from . import cleanup  # noqa: F401
from . import distributed  # noqa: F401
from . import gpu_data_management  # noqa: F401
from . import parallel_lowering  # noqa: F401
from . import stencil_discovery  # noqa: F401
from . import stencil_extraction  # noqa: F401
from . import stencil_lowering  # noqa: F401

#: MLIR passes the pipelines below name that have nothing to do on this
#: substrate: their effect is irrelevant to the simulated execution or folded
#: into an implemented pass.  ``PassManager`` parses and records them but
#: schedules nothing.
GLOBAL_PASS_REGISTRY.accepted.update((
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

#: Stencil module lowering for single-core CPU execution.
CPU_PIPELINE = (
    "convert-stencil-to-scf{target=cpu},"
    "scf-parallel-loop-specialization,"
    "canonicalize,cse"
)

#: Stencil module lowering for multi-threaded CPU execution (OpenMP).
OPENMP_PIPELINE = (
    "convert-stencil-to-scf{target=cpu},"
    "convert-scf-to-openmp,"
    "canonicalize,cse"
)


def gpu_pipeline(tile_sizes: Sequence[int] = (32, 32, 1)) -> str:
    """The paper's GPU pipeline (Listing 4) with explicit parallel-loop tile
    sizes, e.g. ``gpu_pipeline((16, 16))`` for a rank-2 kernel."""
    sizes = ",".join(str(int(t)) for t in tile_sizes)
    return (
        "test-math-algebraic-simplification,"
        f"scf-parallel-loop-tiling{{parallel-loop-tile-sizes={sizes}}},"
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


def gpu_stencil_pipeline(tile_sizes: Sequence[int] = (32, 32, 1)) -> str:
    """:func:`gpu_pipeline` operating at the stencil level."""
    return "convert-stencil-to-scf{target=gpu}," + gpu_pipeline(tile_sizes)


#: The paper's GPU pipeline (Listing 4), flattened: tiling, GPU mapping,
#: kernel outlining, memref/arith/scf lowering stand-ins and cast reconciliation.
GPU_PIPELINE = gpu_pipeline()

#: GPU pipeline operating at the stencil level (coalesced parallel loops).
GPU_STENCIL_PIPELINE = gpu_stencil_pipeline()

#: Distributed-memory lowering via the DMP and MPI dialects.
DMP_PIPELINE = "convert-stencil-to-dmp,convert-dmp-to-mpi,canonicalize"


PIPELINES = {
    "fir-stencil": FIR_STENCIL_PIPELINE,
    "cpu": CPU_PIPELINE,
    "openmp": OPENMP_PIPELINE,
    "gpu": GPU_STENCIL_PIPELINE,
    "dmp": DMP_PIPELINE,
}


__all__ = [
    "FIR_STENCIL_PIPELINE",
    "CPU_PIPELINE",
    "OPENMP_PIPELINE",
    "GPU_PIPELINE",
    "GPU_STENCIL_PIPELINE",
    "gpu_pipeline",
    "gpu_stencil_pipeline",
    "DMP_PIPELINE",
    "PIPELINES",
]
