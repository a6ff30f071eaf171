"""One lowering per backend.

cpu runs the stencil → scf pipeline, openmp continues it with
``convert-scf-to-openmp``, gpu runs its Listing 4 pipeline, and dmp lowers
to scf after its DMP → MPI passes; flang-only never lowers.  So no
``stencil.*`` op reaches the runtime.  ``lower_to_scf`` accepts only each
backend's fixed value, and the other one is an :class:`OptionError` naming
the backend — through ``lower``, ``with_options`` and a
:class:`CompileService` request alike.
"""

import numpy as np
import pytest

import repro
from repro.api import OptionError
from repro.api.backends import registry
from repro.api.options import CpuOptions, DmpOptions, GpuOptions, OpenMPOptions
from repro.apps import gauss_seidel, pw_advection
from repro.ir import print_module
from repro.runtime import SimulatedGPU
from repro.serve import CompileService
from repro.transforms import pipelines

GS = gauss_seidel.generate_source(8, niters=2)

#: (backend, the value lower_to_scf refuses, other options the backend needs)
REFUSALS = [
    ("cpu", False, {}),
    ("openmp", False, {}),
    ("gpu", False, {}),
    ("dmp", False, {"grid": (1, 1)}),
    ("flang-only", True, {}),
]
IDS = [f"{backend}-{value}" for backend, value, _ in REFUSALS]


def _op_names(module):
    return {op.name for op in module.walk()}


class TestEachBackendRunsItsPipeline:
    @pytest.mark.parametrize("backend,options", [
        ("cpu", {}), ("openmp", {}), ("gpu", {}), ("dmp", {"grid": (2, 2)})])
    def test_no_stencil_op_reaches_the_runtime(self, backend, options):
        for source in (GS, pw_advection.generate_source(8)):
            compiled = repro.Session().compile(source).lower(backend, **options)
            names = _op_names(compiled.stencil_module)
            assert not {name for name in names if name.startswith("stencil.")}
            assert "scf.parallel" in names or "omp.wsloop" in names \
                or "gpu.launch_func" in names

    def test_dmp_halo_exchanges_move_onto_the_fields_memref(self):
        compiled = repro.Session().compile(GS).lower("dmp", grid=(2, 2))
        exchanges = [op for op in compiled.stencil_module.walk()
                     if op.name in ("mpi.isend", "mpi.irecv")]
        assert len(exchanges) == 8
        assert {type(op.operands[0].type).__name__ for op in exchanges} \
            == {"MemRefType"}

    def test_default_openmp_ir_holds_omp_wsloop(self):
        compiled = repro.Session().compile(GS).lower("openmp")
        assert "omp.wsloop" in _op_names(compiled.stencil_module)
        assert "stencil.apply" not in _op_names(compiled.stencil_module)
        assert compiled.options.lower_to_scf is True

    def test_default_gpu_ir_holds_gpu_launch_func(self):
        compiled = repro.Session().compile(GS).lower("gpu")
        names = _op_names(compiled.stencil_module)
        assert {"gpu.launch_func", "gpu.func"} <= names
        assert "stencil.apply" not in names
        text = print_module(compiled.stencil_module)
        for tag in ('"gpu.launch"', '"gpu.grid"', '"gpu.block"'):
            assert tag not in text

    def test_each_backend_names_its_one_pipeline(self):
        assert {backend.name: backend.pipeline for backend in registry} == {
            "flang-only": None,
            "cpu": pipelines.CPU_PIPELINE,
            "openmp": pipelines.OPENMP_PIPELINE,
            "gpu": pipelines.GPU_PIPELINE,
            "dmp": pipelines.DMP_PIPELINE,
        }

    @pytest.mark.parametrize("backend,options", [
        ("cpu", {}), ("openmp", {}), ("gpu", {}), ("dmp", {"grid": (1, 1)})])
    def test_spelling_the_fixed_value_is_the_same_artifact(self, backend,
                                                           options):
        session = repro.Session()
        default = session.lower(GS, backend, **options)
        spelled = session.lower(GS, backend, lower_to_scf=True, **options)
        assert spelled.artifact is default.artifact
        assert session.cache_stats["misses"] == 1


class TestTheOtherValueIsRefused:
    @pytest.mark.parametrize("backend,value,options", REFUSALS, ids=IDS)
    def test_through_lower(self, backend, value, options):
        with pytest.raises(OptionError, match=(
                f"backend '{backend}' has one lowering: lower_to_scf is "
                f"always {not value}")):
            repro.Session().compile(GS).lower(
                backend, lower_to_scf=value, **options)

    @pytest.mark.parametrize("backend,value,options", REFUSALS, ids=IDS)
    def test_through_with_options(self, backend, value, options):
        compiled = repro.Session().compile(GS).lower(backend, **options)
        with pytest.raises(OptionError, match=f"backend '{backend}'"):
            compiled.with_options(lower_to_scf=value)

    @pytest.mark.parametrize("backend,value,options", REFUSALS, ids=IDS)
    def test_through_a_service_request_at_submission(self, backend, value,
                                                     options):
        with CompileService(workers=1) as service:
            with pytest.raises(OptionError, match=f"backend '{backend}'"):
                service.run(GS, "gauss_seidel",
                            [gauss_seidel.initial_condition(8)],
                            backend=backend, lower_to_scf=value, **options)
            metrics = service.metrics()
            assert (metrics.submitted_runs, metrics.failed) == (0, 0)

    @pytest.mark.parametrize("cls,lowering", [
        (CpuOptions, "an scf loop nest"), (OpenMPOptions, "an omp.wsloop nest"),
        (GpuOptions, "a gpu.launch_func"), (DmpOptions, "scf loop nests")])
    def test_the_refusal_names_the_one_lowering(self, cls, lowering):
        with pytest.raises(OptionError, match=lowering):
            cls(lower_to_scf=False)

    @pytest.mark.parametrize("cls,value", [
        (CpuOptions, False), (OpenMPOptions, False), (GpuOptions, False),
        (DmpOptions, False)])
    def test_no_options_object_holds_the_other_value(self, cls, value):
        with pytest.raises(OptionError, match="has one lowering"):
            cls(lower_to_scf=value)
        with pytest.raises(OptionError, match="has one lowering"):
            cls().replace(lower_to_scf=value)


class TestLaunchAccounting:
    def test_every_launch_is_a_gpu_launch_func(self):
        """The device counts one launch per gpu.launch_func executed, and the
        functions that launch kernels are exactly those holding one."""
        niters = 3
        compiled = repro.Session().compile(
            gauss_seidel.generate_source(8, niters=niters)).lower("gpu")
        table = compiled.artifact.linked
        assert {func.sym_name for func in table.kernel_launchers} == set(
            compiled.extracted_functions)
        device = SimulatedGPU()
        field = gauss_seidel.initial_condition(8)
        interp = compiled.run("gauss_seidel", field, gpu=device)
        assert device.summary()["launches"] == interp.stats["kernel_launches"] == niters

    def test_a_launchers_snapshot_copy_is_device_scratch(self):
        """An aliased call copies its snapshot into device scratch inside the
        launching function, and the scratch is freed when it returns."""
        n = 8
        compiled = repro.Session().compile(
            pw_advection.generate_source(n)).lower(
            "gpu", data_strategy="host_register", execution_mode="vectorize")
        rng = np.random.default_rng(4)
        u, v, w, sv, sw = (np.asfortranarray(rng.random((n, n, n)))
                           for _ in range(5))
        device = SimulatedGPU()
        interp = compiled.run("pw_advection", u, v, w, u, sv, sw, gpu=device)
        assert interp.stats["snapshots_copied"] == 1
        summary = device.summary()
        # host_register allocates nothing else on the device: the peak is
        # the one field-sized scratch copy.
        assert summary["peak_allocated_bytes"] == u.nbytes
        assert summary["allocated_bytes"] == 0
