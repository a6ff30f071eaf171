"""Execution substrates: IR interpreter, NumPy kernels, simulated GPU and MPI.

Only a sweep's boxes run on the shared pools of :func:`get_executor`; ranks
run on an executor each :meth:`DistributedExecutor.run` opens and closes.
"""

from .distributed_executor import (
    DistributedExecutor,
    DistributedRunResult,
    RankStats,
)
from .gpu_kernel_engine import GpuKernelEngine, GpuLaunchKernel, compile_gpu_func
from .gpu_runtime import (
    DeviceMemoryPool,
    GPUTransfer,
    KernelLaunch,
    SimulatedGPU,
)
from .interpreter import FieldValue, Frame, Interpreter, InterpreterError, TempValue
from .kernel_compiler import (
    EXECUTION_MODES,
    CompiledKernel,
    KernelCompiler,
    KernelUnsupported,
    structural_hash,
)
from .memory import ElementRef, MemoryBuffer, numpy_dtype_for
from .mpi_runtime import (
    CartesianDecomposition,
    MPIAbort,
    MPIError,
    SimulatedCommunicator,
)
from .parallel_executor import (
    SCHEDULE_KINDS,
    get_executor,
    plan_tiles,
)

__all__ = [
    "Interpreter",
    "InterpreterError",
    "EXECUTION_MODES",
    "CompiledKernel",
    "KernelCompiler",
    "KernelUnsupported",
    "structural_hash",
    "Frame",
    "FieldValue",
    "TempValue",
    "MemoryBuffer",
    "ElementRef",
    "numpy_dtype_for",
    "SimulatedGPU",
    "GPUTransfer",
    "KernelLaunch",
    "DeviceMemoryPool",
    "GpuKernelEngine",
    "GpuLaunchKernel",
    "compile_gpu_func",
    "SimulatedCommunicator",
    "CartesianDecomposition",
    "MPIError",
    "MPIAbort",
    "DistributedExecutor",
    "DistributedRunResult",
    "RankStats",
    "SCHEDULE_KINDS",
    "plan_tiles",
    "get_executor",
]
