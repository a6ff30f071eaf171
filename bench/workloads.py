"""The five benchmark workloads.

Every workload drives the program through its README-documented API only
(``repro.Session``, ``.compile().lower()``, ``.run()``, ``.distribute().run()``,
``CompileService`` / ``ArtifactStore``, ``SimulatedGPU`` and the ``repro.apps``
generators), so a refactor behind that API cannot break the benchmark.  The
expected output of every operation comes from the hand-written NumPy
references in ``repro.apps`` — never from the compiler under test — and is
compared **bitwise**.

A workload exposes the same small surface to the runner:

``generate()``           sources and inputs from the seed (part of set-up)
``cold_start()``         fresh session, cold compile, first run (part of set-up)
``compile_phase(timed, part, parts)`` cold compiles, no store -> ``compile_ms_p50``
``reload_phase(timed, part, parts)``  the same handles from a
                         warm store                           -> ``reload_ms_p50``
``stage()``              copy the inputs (outside the timed region)
``operate(args)``        one warm operation                  -> ``run_ms_p50``
``correct(out)``         bitwise check against the reference
``reference_op()``       the hand-NumPy computation          -> ``vs_numpy_ratio``

``timed(fn, check=None)`` is the runner's: it times ``fn()``, counts the
attempt, and counts a failure if ``fn`` raises or ``check(result)`` is false.
A phase takes its samples in ``parts`` instalments, ``part`` = 0, 1, ... in
order, which the runner spreads over the run between the warm operations.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.runtime import SimulatedGPU
from repro.serve import ArtifactStore, CompileService

#: Scratch space for artifact stores: inside the checkout, never ``/tmp``.
OUT_DIR = Path(__file__).resolve().parent / "out"


def _copies(fields: Sequence[np.ndarray]) -> List[np.ndarray]:
    return [f.copy(order="F") for f in fields]


def _bitwise_equal(got: Sequence[np.ndarray], want: Sequence[np.ndarray]) -> bool:
    return len(got) == len(want) and all(
        np.array_equal(g, w) for g, w in zip(got, want))


class Workload:
    """One kernel compiled for one backend and run closed-loop by one caller."""

    name = ""
    #: ``repro.apps`` module with the generator, inputs and NumPy reference.
    app = pw_advection
    entry = "pw_advection"
    backend = "cpu"
    lower_options: Dict[str, object] = {}
    n = 96
    #: ``niters`` baked into the Fortran source (sweeps per call).
    niters = 1
    #: Fresh sessions timed per run for ``compile_ms_p50`` and as many for
    #: ``reload_ms_p50``.
    compile_samples = 24
    smoke_n = 12

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.n = self.smoke_n
            self.compile_samples = 2
        self.handle = None
        self.session: Optional[repro.Session] = None
        self.warm_dir: Optional[Path] = None
        self._scratch: List[Path] = []

    def scratch(self, prefix: str) -> Path:
        """A temporary directory under ``bench/out``, removed by ``close``."""
        OUT_DIR.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix=f"tmp-{prefix}-", dir=OUT_DIR))
        self._scratch.append(directory)
        return directory

    # -- sizes (the paper's unit is grid cells per second) ---------------------

    @property
    def sweeps(self) -> int:
        return self.niters

    @property
    def cells_per_op(self) -> int:
        return (self.n - 2) ** 3 * self.sweeps

    @property
    def flops_per_op(self) -> int:
        return self.cells_per_op * self.app.FLOPS_PER_CELL

    @property
    def bytes_per_op(self) -> int:
        return self.cells_per_op * self.app.BYTES_PER_CELL

    # -- set-up -----------------------------------------------------------------

    def generate(self) -> None:
        self.source = pw_advection.generate_source(self.n, niters=self.niters)
        self.fields = pw_advection.initial_fields(self.n, seed=self.seed)

    def expected(self) -> Sequence[np.ndarray]:
        """What every operation must produce (computed once, untimed)."""
        return self.reference_op()

    def cold_start(self) -> None:
        self.session = repro.Session()
        self.handle = self.plan(self.session)
        self.operate(self.stage())

    def lower(self, session: repro.Session):
        """The compiled handle, through ``session``'s cache."""
        return session.compile(self.source).lower(self.backend,
                                                  **self.lower_options)

    def plan(self, session: repro.Session):
        """What ``operate`` runs: the handle, or a plan derived from it."""
        return self.lower(session)

    def warm_session(self) -> repro.Session:
        """The session whose cache holds this workload's artifacts."""
        return self.session

    # -- measured ---------------------------------------------------------------

    @staticmethod
    def instalment(total: int, part: int, parts: int) -> range:
        """The ``part``-th of ``parts`` consecutive slices of ``range(total)``."""
        return range(total * part // parts, total * (part + 1) // parts)

    def compile_phase(self, timed, part: int = 0, parts: int = 1) -> None:
        for _ in self.instalment(self.compile_samples, part, parts):
            timed(lambda: self.plan(repro.Session()))

    def reload(self, directory: Path):
        """Load + IR re-parse on a fresh session; a lower is a failure."""
        session = repro.Session(store=ArtifactStore(directory))
        handle = self.plan(session)
        stats = session.cache_stats
        if stats["misses"] or not stats.get("disk_hits"):
            raise AssertionError(f"reload lowered instead of loading: {stats}")
        return handle

    def reload_phase(self, timed, part: int = 0, parts: int = 1) -> None:
        if self.warm_dir is None:
            self.warm_dir = self.scratch("warm")
            self.lower(repro.Session(store=ArtifactStore(self.warm_dir)))
        for _ in self.instalment(self.compile_samples, part, parts):
            timed(lambda: self.reload(self.warm_dir))

    def stage(self) -> List[np.ndarray]:
        return _copies(self.fields)

    def operate(self, args: List[np.ndarray]) -> Sequence[np.ndarray]:
        self.interp = self.handle.run(self.entry, *args)
        return args[3:]

    def reference_op(self) -> Sequence[np.ndarray]:
        return pw_advection.reference(*self.fields[:3])

    def correct(self, out: Sequence[np.ndarray]) -> bool:
        return _bitwise_equal(out, self.want)

    def close(self) -> None:
        for directory in self._scratch:
            shutil.rmtree(directory, ignore_errors=True)
        self._scratch.clear()
        self.warm_dir = None


class PW96Cpu(Workload):
    """Why: ROADMAP's headline gap case: the stencil-level stencil.apply
    path, where kernel_compiler's translator and stencil.load copies are
    >95% of the work and compile/serve are ~0.
    """

    name = "pw96_cpu"
    lower_options = {"execution_mode": "vectorize"}


class GaussSeidelWorkload(Workload):
    app = gauss_seidel
    entry = "gauss_seidel"
    niters = 10
    smoke_niters = 3
    #: A 9 ms compile needs more samples than a 110 ms one for a median as
    #: steady, and can afford them.
    compile_samples = 64

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            self.niters = self.smoke_niters

    def generate(self) -> None:
        self.source = gauss_seidel.generate_source(self.n, niters=self.niters)
        self.fields = [gauss_seidel.initial_condition(self.n, seed=self.seed)]

    def operate(self, args):
        self.interp = self.handle.run(self.entry, *args)
        return args

    def reference_op(self):
        # Stencil semantics read a snapshot per sweep: Jacobi is the reference.
        return [gauss_seidel.reference_jacobi(self.fields[0], self.niters)]


class GS96OpenMP(GaussSeidelWorkload):
    """Why: same kernel_compiler/interpreter layers used differently: in-
    place omp.wsloop nests tiled over 2 threads, 10 sweeps per operation,
    memory-bound at ~1.1x NumPy, so per-sweep dispatch/tiling cost shows.
    """

    name = "gs96_openmp"
    backend = "openmp"
    lower_options = {"lower_to_scf": True, "threads": 2,
                     "execution_mode": "vectorize"}


class PW64Gpu(Workload):
    """Why: gpu_kernel_engine whole-lattice launches plus gpu_runtime h2d/d2h
    of six fields; bypasses the apply path and parallel_executor; the
    longest pipeline (17 passes) shows in compile and reload.
    """

    name = "pw64_gpu"
    backend = "gpu"
    lower_options = {"lower_to_scf": True, "data_strategy": "optimised",
                     "execution_mode": "vectorize"}
    n = 64
    niters = 2

    def operate(self, args):
        # A fresh device per operation: every operation pays its transfers.
        self.device = SimulatedGPU()
        self.interp = self.handle.run(self.entry, *args, gpu=self.device)
        return args[3:]


class GS96Dmp4(GaussSeidelWorkload):
    """Why: the only workload on distributed_executor's scatter/gather and
    mpi_runtime's halo path (~40% of an operation): 4 vectorized ranks on
    2 cores, so counts are reported, not scaling efficiency.
    """

    name = "gs96_dmp4"
    backend = "dmp"
    grid = (2, 2)
    lower_options = {"grid": grid, "execution_mode": "vectorize"}

    @property
    def sweeps(self) -> int:
        return self.iterations

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        # One sweep per rank-local call; the plan iterates (as in
        # examples/distributed_gauss_seidel.py).
        self.iterations = self.niters
        self.niters = 1

    def generate(self) -> None:
        n = self.n
        local = (n // self.grid[0] + 2, n // self.grid[1] + 2, n + 2)
        self.source = gauss_seidel.generate_source_shaped(local, niters=1)
        rng = np.random.default_rng(self.seed)
        self.fields = [np.asfortranarray(rng.random((n, n, n)))]

    def plan(self, session, grid=None):
        options = dict(self.lower_options, grid=grid or self.grid)
        return session.compile(self.source).lower(self.backend, **options) \
            .distribute(source_builder=gauss_seidel.generate_source_shaped)

    def stage(self):
        # plan.run never mutates its input, so there is nothing to copy.
        return self.fields

    def operate(self, args):
        self.result = self.handle.run(args[0], iterations=self.iterations)
        return self.result

    def reference_op(self):
        return [gauss_seidel.reference_jacobi(self.fields[0], self.iterations)]

    def correct(self, out) -> bool:
        # Rank-local kernels treat the global boundary differently from the
        # fixed-boundary reference; the difference travels one cell per sweep.
        return out.max_interior_error(self.want[0],
                                      margin=self.iterations) == 0.0


class ServeCatalogue(Workload):
    """48 distinct sources through one ``CompileService`` and its store.

    Why: compile-dominated: frontend, transforms, ir, serve.store,
    serve.service and api do most of the work, the store is written as
    well as read, and the kernel is small enough that per-request overhead
    shows.
    """

    name = "serve_catalogue"
    lower_options = {"lower_to_scf": True, "execution_mode": "vectorize"}
    n = 32
    sources = 48
    smoke_sources = 2
    workers = 2

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        if smoke:
            self.sources = self.smoke_sources
        self.service: Optional[CompileService] = None
        self.fresh: Optional[CompileService] = None
        #: Sources the measured service has compiled: the warm set.
        self.ready = 0
        self.order: Sequence[int] = ()
        self.position = self.shuffles = 0

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        # dx is distinct by construction, dy and dz drawn from the seed: every
        # source is a different compile key and a different expected output.
        self.spacings = [
            (50.0 + i, float(rng.integers(50, 200)), float(rng.integers(50, 200)))
            for i in range(self.sources)
        ]
        # One extra source outside the catalogue, at the generator's default
        # spacings: set-up's request and the per-layer compile cycles use it,
        # so their IR size does not change with the seed.
        self.spacings.append((100.0, 100.0, 100.0))
        self.catalogue = [
            pw_advection.generate_source(self.n, dx=dx, dy=dy, dz=dz)
            for dx, dy, dz in self.spacings
        ]
        self.source = self.catalogue[self.sources]
        self.fields = pw_advection.initial_fields(self.n, seed=self.seed)

    def expected(self):
        return [pw_advection.reference(*self.fields[:3], dx=dx, dy=dy, dz=dz)
                for dx, dy, dz in self.spacings]

    def new_service(self, directory: Path) -> CompileService:
        return CompileService(store=ArtifactStore(directory),
                              workers=self.workers)

    def request(self, service: CompileService, index: int,
                args: List[np.ndarray]):
        self.interp = service.run(self.catalogue[index], self.entry, args,
                                  backend=self.backend, **self.lower_options)
        return index, args[3:]

    def cold_start(self) -> None:
        # Set-up is a throwaway service over its own store answering one
        # request for the extra source; the measured service starts empty.
        with self.new_service(self.scratch("setup")) as service:
            self.request(service, self.sources, self.stage())

    def compile_phase(self, timed, part: int = 0, parts: int = 1) -> None:
        """Cold: every source once (lower + store save + run); the sources
        arrive an instalment at a time and join the warm set."""
        if self.service is None:
            self.store_dir = self.scratch("store")
            self.service = self.new_service(self.store_dir)
        for index in self.instalment(self.sources, part, parts):
            args = self.stage()
            timed(lambda: self.request(self.service, index, args),
                  check=self.correct)
            self.ready = index + 1
        self.order = ()  # the next warm request reshuffles over the new set

    def reload_phase(self, timed, part: int = 0, parts: int = 1) -> None:
        """A second service and session over the store the first one wrote:
        every first request there is load + IR re-parse + run, never a lower."""
        if self.fresh is None:
            self.fresh = self.new_service(self.store_dir)

        def from_disk(out):
            seen = self.fresh.metrics()
            if seen.misses or seen.disk_hits != out[0] + 1:
                return (f"reload lowered instead of loading: misses="
                        f"{seen.misses} disk_hits={seen.disk_hits}")
            return self.correct(out)

        for index in self.instalment(self.sources, part, parts):
            args = self.stage()
            timed(lambda: self.request(self.fresh, index, args),
                  check=from_disk)
        self.reload_metrics = self.fresh.metrics()

    def stage(self):
        return _copies(self.fields)

    def next_index(self) -> int:
        """The warm set in seeded-shuffled rounds, one source per call."""
        if self.position >= len(self.order):
            self.shuffles += 1
            self.order = np.random.default_rng(
                [self.seed, self.shuffles]).permutation(self.ready)
            self.position = 0
        index = int(self.order[self.position])
        self.position += 1
        return index

    def operate(self, args):
        return self.request(self.service, self.next_index(), args)

    def reference_op(self):
        return pw_advection.reference(*self.fields[:3])

    def correct(self, out) -> bool:
        index, arrays = out
        return _bitwise_equal(arrays, self.want[index])

    def warm_session(self):
        return self.service.session

    def close(self) -> None:
        for service in (self.service, self.fresh):
            if service is not None:
                service.close()
        self.service = self.fresh = None
        super().close()


WORKLOADS = {cls.name: cls for cls in
             (PW96Cpu, GS96OpenMP, PW64Gpu, GS96Dmp4, ServeCatalogue)}
