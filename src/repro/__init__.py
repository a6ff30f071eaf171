"""repro — reproduction of Brown et al., "Fortran performance optimisation and
auto-parallelisation by leveraging MLIR-based domain specific abstractions in
Flang" (SC-W 2023).

The package contains:

* :mod:`repro.ir` — an xDSL/MLIR-equivalent SSA IR framework,
* :mod:`repro.dialects` — the dialects used by the flow (FIR, stencil, scf,
  OpenMP, GPU, DMP, MPI, ...),
* :mod:`repro.frontend` — a Fortran-subset frontend that emits FIR the way
  Flang does,
* :mod:`repro.transforms` — the paper's stencil discovery/extraction passes
  and the lowerings to each target,
* :mod:`repro.runtime` — interpreters, NumPy kernels and simulated
  GPU/MPI substrates,
* :mod:`repro.apps` — the Gauss-Seidel and PW advection benchmarks,
* :mod:`repro.harness` — experiment drivers that measure every figure of the
  paper's evaluation at reduced sizes.

The public compiler API (:mod:`repro.api` — ``repro.compile``, the backend
registry, ``Program``/``Session``) is re-exported lazily so that importing
:mod:`repro` stays cheap.
"""

__version__ = "1.1.0"

_LAZY_EXPORTS = {
    # Fluent API (the supported surface).
    "compile": "repro.api",
    "Program": "repro.api",
    "CompiledProgram": "repro.api",
    "DistributedProgram": "repro.api",
    "CompiledArtifact": "repro.api",
    "Session": "repro.api",
    "default_session": "repro.api",
    "Backend": "repro.api",
    "BackendRegistry": "repro.api",
    "UnknownBackendError": "repro.api",
    "registry": "repro.api",
    "get_backend": "repro.api",
    "OptionError": "repro.api",
    "BackendOptions": "repro.api",
    "FlangOnlyOptions": "repro.api",
    "CpuOptions": "repro.api",
    "OpenMPOptions": "repro.api",
    "GpuOptions": "repro.api",
    "DmpOptions": "repro.api",
    # Compilation as a service (on-disk artifact store + front door).
    "ArtifactStore": "repro.serve",
    "CompileService": "repro.serve",
    "ServiceMetrics": "repro.serve",
    "ServiceRejected": "repro.serve",
    "ServiceTimeout": "repro.serve",
    # Fault injection and recovery.
    "FaultPlan": "repro.resilience",
    "ResilienceOptions": "repro.resilience",
    "RecoveryReport": "repro.resilience",
}

__all__ = ["__version__", *sorted(_LAZY_EXPORTS)]


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        import importlib

        module = importlib.import_module(_LAZY_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module 'repro' has no attribute '{name}'")
