"""Transformation passes: discovery, extraction, fusion, lowerings, pipelines."""

from .cleanup import (
    CanonicalizePass,
    CSEPass,
    ReconcileUnrealizedCastsPass,
)
from .distributed import ConvertDMPToMPIPass, ConvertStencilToDMPPass, NeighbourRankOp
from .gpu_data_management import GpuHostRegisterPass, GpuOptimisedDataPass
from .parallel_lowering import (
    ConvertParallelLoopsToGpuPass,
    ConvertSCFToOpenMPPass,
    ParallelLoopTilingPass,
)
from .pipelines import (
    CPU_PIPELINE,
    DMP_PIPELINE,
    FIR_STENCIL_PIPELINE,
    GPU_PIPELINE,
    OPENMP_PIPELINE,
    PIPELINES,
)
from .stencil_discovery import StencilDiscoveryPass
from .stencil_extraction import ExtractStencilsPass
from .stencil_fusion import merge_adjacent_applies
from .stencil_lowering import ConvertStencilToSCFPass

__all__ = [
    "StencilDiscoveryPass",
    "ExtractStencilsPass",
    "merge_adjacent_applies",
    "ConvertStencilToSCFPass",
    "ConvertSCFToOpenMPPass",
    "ParallelLoopTilingPass",
    "ConvertParallelLoopsToGpuPass",
    "GpuHostRegisterPass",
    "GpuOptimisedDataPass",
    "ConvertStencilToDMPPass",
    "ConvertDMPToMPIPass",
    "NeighbourRankOp",
    "CanonicalizePass",
    "CSEPass",
    "ReconcileUnrealizedCastsPass",
    "CPU_PIPELINE",
    "OPENMP_PIPELINE",
    "GPU_PIPELINE",
    "DMP_PIPELINE",
    "FIR_STENCIL_PIPELINE",
    "PIPELINES",
]
