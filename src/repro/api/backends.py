"""The backend registry: one pluggable :class:`Backend` per compilation target.

Each backend owns two things:

* its **pipeline** — the mlir-opt style pass pipeline string (plus any
  coordinated module edits, e.g. the GPU data-management pass touching the FIR
  module);
* its **option schema** — the frozen dataclass from :mod:`repro.api.options`
  naming exactly the knobs this target understands (unknown or mismatched
  options are rejected with the backend's name and valid-field list).

The interpreter needs no backend wiring: it makes its simulated GPU on the
first gpu op it runs.

``registry.get(name)`` accepts the registered names (``"cpu"``, ``"openmp"``,
``"gpu"``, ``"dmp"``, ``"flang-only"``) or a :class:`Backend` object.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Type, Union

from ..frontend import compile_to_fir
from ..ir.pass_manager import PassManager
from ..transforms import pipelines
from ..transforms.gpu_data_management import GpuHostRegisterPass, GpuOptimisedDataPass
from ..transforms.stencil_discovery import StencilDiscoveryPass
from ..transforms.stencil_extraction import ExtractStencilsPass
from .artifact import CompiledArtifact
from .options import (
    BackendOptions,
    CpuOptions,
    DmpOptions,
    FlangOnlyOptions,
    GpuOptions,
    OpenMPOptions,
    OptionError,
)


class UnknownBackendError(ValueError):
    """Raised when a backend name is not in the registry."""


class Backend:
    """One compilation target: pipeline and option schema.

    Subclasses set :attr:`name` (the registry key), :attr:`options_cls` and
    their one :attr:`pipeline`; :meth:`transform` edits around it.
    """

    name: str = ""
    options_cls: Type[BackendOptions] = BackendOptions
    #: The pass pipeline this backend runs on the extracted stencil module
    #: (``None`` — keep the module at the stencil level).
    pipeline: Optional[str] = None
    #: Whether this target runs stencil discovery/extraction at all.
    uses_stencil_flow: bool = True

    # -- options -------------------------------------------------------------

    def make_options(self, options: Optional[BackendOptions] = None,
                     **overrides) -> BackendOptions:
        """Build (or refine) this backend's options, rejecting mismatches.

        Passing a field the schema does not define — e.g. ``grid`` to the cpu
        backend — raises :class:`OptionError` naming the backend and listing
        its valid options, instead of being silently ignored.
        """
        valid = self.options_cls.field_names()
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise OptionError(
                f"backend '{self.name}' does not accept option(s) "
                f"{', '.join(map(repr, unknown))}; valid options: {', '.join(valid)}"
            )
        if options is not None:
            if not isinstance(options, self.options_cls):
                raise OptionError(
                    f"backend '{self.name}' expects {self.options_cls.__name__}, "
                    f"got {type(options).__name__}"
                )
            return options.replace(**overrides) if overrides else options
        return self.options_cls(**overrides)

    # -- compilation ---------------------------------------------------------

    def lower(self, source, options: Optional[BackendOptions] = None,
              **overrides) -> CompiledArtifact:
        """Compile ``source`` (a string or a :class:`repro.api.Program`)
        through this backend's flow and return the compiled artifact."""
        source = getattr(source, "source", source)
        options = self.make_options(options, **overrides)
        fir_module = compile_to_fir(source)
        artifact = CompiledArtifact(fir_module=fir_module)
        if not self.uses_stencil_flow:
            return artifact

        # 1. Discover stencils in the FIR produced by "Flang".
        discovery = StencilDiscoveryPass(merge=options.fuse_stencils)
        discovery.apply(fir_module)
        artifact.discovered_stencils = dict(discovery.discovered)
        fir_module.verify()

        # 2. Extract the stencil portions into their own module.
        extraction = ExtractStencilsPass()
        extraction.apply(fir_module)
        artifact.stencil_module = extraction.extracted_module
        artifact.extracted_functions = list(extraction.extracted_functions)
        fir_module.verify()
        if artifact.stencil_module is not None:
            artifact.stencil_module.verify()
        if artifact.stencil_module is None or not artifact.extracted_functions:
            return artifact

        # 3. Target-specific transformation of the stencil module (and, for
        #    GPU data management / DMP, coordinated edits of the FIR module).
        self.transform(artifact, options)
        return artifact

    def transform(self, artifact: CompiledArtifact,
                  options: BackendOptions) -> None:
        """Target-specific lowering of the extracted stencil module, as
        ``options`` (the options ``artifact`` is compiled with) ask."""
        if self.pipeline:
            self.run_pipeline(artifact, self.pipeline)

    def run_pipeline(self, artifact: CompiledArtifact, pipeline: str) -> None:
        pm = PassManager()
        pm.add_pipeline(pipeline)
        artifact.pass_statistics.extend(pm.run(artifact.stencil_module))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class FlangOnlyBackend(Backend):
    """Plain FIR, no stencil specialisation — what Flang alone would run."""

    name = "flang-only"
    options_cls = FlangOnlyOptions
    uses_stencil_flow = False


class CpuBackend(Backend):
    """Single-core CPU: the stencil level, or ``CPU_PIPELINE`` on request."""

    name = "cpu"
    options_cls = CpuOptions

    def transform(self, artifact: CompiledArtifact,
                  options: CpuOptions) -> None:
        if options.lower_to_scf:
            self.run_pipeline(artifact, pipelines.CPU_PIPELINE)


class OpenMPBackend(Backend):
    """Multi-threaded CPU: scf.parallel nests lowered to omp.wsloop."""

    name = "openmp"
    options_cls = OpenMPOptions
    pipeline = pipelines.OPENMP_PIPELINE


class GpuBackend(Backend):
    """Nvidia GPU (simulated V100): a data strategy, then Listing 4."""

    name = "gpu"
    options_cls = GpuOptions
    pipeline = pipelines.GPU_PIPELINE

    _DATA_PASSES = {
        "optimised": GpuOptimisedDataPass,
        "host_register": GpuHostRegisterPass,
    }

    def transform(self, artifact: CompiledArtifact,
                  options: GpuOptions) -> None:
        strategy_cls = self._DATA_PASSES[options.data_strategy]
        strategy = strategy_cls(stencil_module=artifact.stencil_module)
        strategy.apply(artifact.fir_module)
        artifact.fir_module.verify()
        artifact.stencil_module.verify()
        super().transform(artifact, options)


class DmpBackend(Backend):
    """Distributed memory: domain decomposition + halo swaps via DMP/MPI."""

    name = "dmp"
    options_cls = DmpOptions

    def transform(self, artifact: CompiledArtifact,
                  options: DmpOptions) -> None:
        grid = "x".join(map(str, options.grid))
        self.run_pipeline(artifact, pipelines.DMP_PIPELINE.replace(
            "convert-stencil-to-dmp", f"convert-stencil-to-dmp{{grid={grid}}}", 1))


class BackendRegistry:
    """Name → :class:`Backend` table."""

    def __init__(self):
        self._backends: Dict[str, Backend] = {}

    def register(self, backend: Backend, *, replace: bool = False) -> Backend:
        """Register ``backend`` under its name; returns it so the call
        composes as an expression."""
        if not backend.name:
            raise ValueError("backend must define a non-empty name")
        if backend.name in self._backends and not replace:
            raise ValueError(
                f"backend '{backend.name}' is already registered "
                f"(pass replace=True to override)"
            )
        self._backends[backend.name] = backend
        return backend

    def get(self, name: Union[str, "Backend"]) -> Backend:
        """Look up a backend by name (a Backend object is returned as is)."""
        if isinstance(name, Backend):
            return name
        backend = self._backends.get(name)
        if backend is None:
            raise UnknownBackendError(
                f"unknown backend {name!r}; registered backends: "
                f"{', '.join(self.names())}"
            )
        return backend

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._backends))

    def __contains__(self, name) -> bool:
        try:
            self.get(name)
            return True
        except UnknownBackendError:
            return False

    def __iter__(self) -> Iterator[Backend]:
        return iter(self._backends.values())

    def __len__(self) -> int:
        return len(self._backends)


#: The default registry holding the five targets evaluated in the paper.
registry = BackendRegistry()
for _backend in (FlangOnlyBackend(), CpuBackend(), OpenMPBackend(),
                 GpuBackend(), DmpBackend()):
    registry.register(_backend)
del _backend


def get_backend(name) -> Backend:
    """Shorthand for ``registry.get(name)`` on the default registry."""
    return registry.get(name)


__all__ = [
    "UnknownBackendError",
    "Backend",
    "FlangOnlyBackend",
    "CpuBackend",
    "OpenMPBackend",
    "GpuBackend",
    "DmpBackend",
    "BackendRegistry",
    "registry",
    "get_backend",
]
