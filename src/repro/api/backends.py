"""The backend registry: one pluggable :class:`Backend` per compilation target.

Each backend owns three things:

* its **pipeline** — the mlir-opt style pass pipeline string (plus any
  coordinated module edits, e.g. the GPU data-management pass touching the FIR
  module or the DMP decomposition passes);
* its **option schema** — the frozen dataclass from :mod:`repro.api.options`
  naming exactly the knobs this target understands (unknown or mismatched
  options are rejected with the backend's name and valid-field list);
* its **runtime wiring** — the simulated-device defaults the interpreter
  needs (a fresh :class:`SimulatedGPU` for the gpu backend, communicator
  passthrough for dmp).

``registry.get(name)`` accepts the registered names (``"cpu"``, ``"openmp"``,
``"gpu"``, ``"dmp"``, ``"flang-only"``) or a :class:`Backend` object.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Type, Union

from ..dialects import stencil
from ..frontend import compile_to_fir
from ..ir.context import Context, default_context
from ..ir.pass_manager import PassManager
from ..runtime.gpu_runtime import SimulatedGPU
from ..transforms import pipelines
from ..transforms.distributed import ConvertDMPToMPIPass, ConvertStencilToDMPPass
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
    """One compilation target: pipeline, option schema, runtime wiring.

    Subclasses set :attr:`name` (the registry key) and :attr:`options_cls`;
    stencil-flow targets override :meth:`pipeline` and/or :meth:`transform`.
    """

    name: str = ""
    options_cls: Type[BackendOptions] = BackendOptions
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

    def pipeline(self, options: BackendOptions) -> Optional[str]:
        """The pass-pipeline string this backend runs on the stencil module
        (``None`` — keep the module at the stencil level)."""
        return None

    def lower(self, source, options: Optional[BackendOptions] = None, *,
              ctx: Optional[Context] = None, **overrides) -> CompiledArtifact:
        """Compile ``source`` (a string or a :class:`repro.api.Program`)
        through this backend's flow and return the compiled artifact."""
        source = getattr(source, "source", source)
        options = self.make_options(options, **overrides)
        ctx = ctx or default_context()
        fir_module = compile_to_fir(source)
        artifact = CompiledArtifact(
            source=source, backend=self.name, options=options,
            fir_module=fir_module,
        )
        if not self.uses_stencil_flow:
            return artifact

        # 1. Discover stencils in the FIR produced by "Flang".
        discovery = StencilDiscoveryPass(merge=options.fuse_stencils)
        discovery.apply(ctx, fir_module)
        artifact.discovered_stencils = dict(discovery.discovered)
        fir_module.verify()

        # 2. Extract the stencil portions into their own module.
        extraction = ExtractStencilsPass()
        extraction.apply(ctx, fir_module)
        artifact.stencil_module = extraction.extracted_module
        artifact.extracted_functions = list(extraction.extracted_functions)
        fir_module.verify()
        if artifact.stencil_module is not None:
            artifact.stencil_module.verify()
        if artifact.stencil_module is None or not artifact.extracted_functions:
            return artifact

        # 3. Target-specific transformation of the stencil module (and, for
        #    GPU data management / DMP, coordinated edits of the FIR module).
        self.transform(artifact, ctx)
        return artifact

    def transform(self, artifact: CompiledArtifact, ctx: Context) -> None:
        """Target-specific lowering of the extracted stencil module."""
        pipeline = self.pipeline(artifact.options)
        if pipeline:
            self.run_pipeline(artifact, pipeline, ctx)

    def run_pipeline(self, artifact: CompiledArtifact, pipeline: str,
                     ctx: Context) -> None:
        pm = PassManager(ctx, verify_each=True)
        pm.add_pipeline(pipeline)
        artifact.pass_statistics.extend(pm.run(artifact.stencil_module))

    # -- runtime wiring ------------------------------------------------------

    def interpreter_kwargs(self, options: BackendOptions,
                           overrides: Dict[str, object]) -> Dict[str, object]:
        """Fill in this target's simulated-runtime defaults (gpu device,
        communicator, ...) for interpreter construction."""
        return overrides

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class FlangOnlyBackend(Backend):
    """Plain FIR, no stencil specialisation — what Flang alone would run."""

    name = "flang-only"
    options_cls = FlangOnlyOptions
    uses_stencil_flow = False


class CpuBackend(Backend):
    """Single-core CPU via the stencil flow."""

    name = "cpu"
    options_cls = CpuOptions

    def pipeline(self, options: CpuOptions) -> Optional[str]:
        return pipelines.CPU_PIPELINE if options.lower_to_scf else None


class OpenMPBackend(Backend):
    """Multi-threaded CPU: scf.parallel nests lowered to omp.wsloop."""

    name = "openmp"
    options_cls = OpenMPOptions

    def pipeline(self, options: OpenMPOptions) -> Optional[str]:
        return pipelines.OPENMP_PIPELINE if options.lower_to_scf else None


class GpuBackend(Backend):
    """Nvidia GPU (simulated V100) with selectable data-management strategy."""

    name = "gpu"
    options_cls = GpuOptions

    _DATA_PASSES = {
        "optimised": GpuOptimisedDataPass,
        "host_register": GpuHostRegisterPass,
    }

    #: The paper's Listing 4 tile sizes, adapted to each kernel's rank when
    #: ``tile_sizes`` is left at its ``None`` default.
    _DEFAULT_TILE = (32, 32, 1)

    def pipeline(self, options: GpuOptions) -> Optional[str]:
        if not options.lower_to_scf:
            return None
        return pipelines.gpu_stencil_pipeline(
            options.tile_sizes or self._DEFAULT_TILE
        )

    def _resolve_tile_sizes(self, artifact: CompiledArtifact) -> Tuple[int, ...]:
        """Tile sizes are validated against every lowered kernel's rank
        *here*, at lower time, instead of being silently padded/truncated
        deep inside the tiling pass."""
        kernel_ranks = []
        for name in artifact.extracted_functions:
            func_op = artifact.stencil_module.get_symbol(name)
            for apply_op in func_op.walk_type(stencil.ApplyOp):
                kernel_ranks.append((name, len(apply_op.lb)))
        explicit = artifact.options.tile_sizes
        if explicit is None:
            max_rank = max((rank for _, rank in kernel_ranks), default=3)
            default = self._DEFAULT_TILE + (1,) * max(0, max_rank - 3)
            return default[:max_rank]
        for name, rank in kernel_ranks:
            if len(explicit) != rank:
                raise OptionError(
                    f"gpu tile_sizes {explicit} has {len(explicit)} "
                    f"entr{'y' if len(explicit) == 1 else 'ies'} but kernel "
                    f"'{name}' has rank {rank}; pass exactly one tile size "
                    f"per dimension (or tile_sizes=None for the rank-adapted "
                    f"default)"
                )
        return explicit

    def transform(self, artifact: CompiledArtifact, ctx: Context) -> None:
        options = artifact.options
        tile = self._resolve_tile_sizes(artifact)
        strategy_cls = self._DATA_PASSES[options.data_strategy]
        strategy = strategy_cls(stencil_module=artifact.stencil_module,
                                tile=tile)
        strategy.apply(ctx, artifact.fir_module)
        artifact.fir_module.verify()
        artifact.stencil_module.verify()
        if options.lower_to_scf:
            self.run_pipeline(artifact, pipelines.gpu_stencil_pipeline(tile),
                              ctx)

    def interpreter_kwargs(self, options, overrides):
        if overrides.get("gpu") is None:
            overrides["gpu"] = SimulatedGPU()
        return overrides


class DmpBackend(Backend):
    """Distributed memory: domain decomposition + halo swaps via DMP/MPI."""

    name = "dmp"
    options_cls = DmpOptions

    def pipeline(self, options: DmpOptions) -> Optional[str]:
        return pipelines.CPU_PIPELINE if options.lower_to_scf else None

    def transform(self, artifact: CompiledArtifact, ctx: Context) -> None:
        dmp_pass = ConvertStencilToDMPPass(grid=artifact.options.grid)
        dmp_pass.apply(ctx, artifact.stencil_module)
        mpi_pass = ConvertDMPToMPIPass()
        mpi_pass.apply(ctx, artifact.stencil_module)
        artifact.stencil_module.verify()
        super().transform(artifact, ctx)


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
