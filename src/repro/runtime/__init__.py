"""Execution substrates: IR interpreter, NumPy kernels, simulated GPU and MPI.

Only a sweep's boxes run on the shared pools of :func:`get_executor`; ranks
run on an executor each :meth:`DistributedExecutor.run` opens and closes.
"""

from .distributed_executor import (
    DistributedExecutor,
    DistributedRunResult,
    RankStats,
)
from .gpu_kernel_engine import GpuKernelEngine, compile_gpu_func
from .gpu_runtime import DeviceMemoryPool, SimulatedGPU
from .interpreter import Frame, Interpreter, InterpreterError
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
from .sweep import get_executor

__all__ = [
    "Interpreter",
    "InterpreterError",
    "EXECUTION_MODES",
    "CompiledKernel",
    "KernelCompiler",
    "KernelUnsupported",
    "structural_hash",
    "Frame",
    "MemoryBuffer",
    "ElementRef",
    "numpy_dtype_for",
    "SimulatedGPU",
    "DeviceMemoryPool",
    "GpuKernelEngine",
    "compile_gpu_func",
    "SimulatedCommunicator",
    "CartesianDecomposition",
    "MPIError",
    "MPIAbort",
    "DistributedExecutor",
    "DistributedRunResult",
    "RankStats",
    "get_executor",
]
