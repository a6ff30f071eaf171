"""Every settable value on the public surface is pinned, with its reason.

A knob doubles the configurations tests and benchmarks must cover, so one
exists only when it earns it:

* ``two values`` — two callers outside tests and examples pass different
  values (the reason names them);
* ``deployment`` — where and how big the deployment is (paths, worker
  counts);
* ``safety bound`` — a limit that turns a hang or an unbounded queue into a
  named error;
* ``test seam`` — tests substitute a fake or provoke a failure through it;
* ``input`` — the data the call works on, not a choice about how;
* ``paper text`` — the paper's pipeline text spells the option; its one
  value is a named constant.

A value only one caller ever sets is a constant.  The census is the
surface: the option dataclasses' fields, the keyword parameters of the
public constructors and calls below (the runs included, so a second place
to set a value shows) and of every registered pass, and the public
attributes of a :class:`Session`.  Adding a name means adding its
reason here; a name the census lists that the code no longer has fails too.
"""

import dataclasses
import inspect

import repro.transforms  # noqa: F401 — registers every pass
from repro.api import CompiledProgram, DistributedProgram, Session, registry
from repro.api.options import BackendOptions
from repro.ir import PassManager
from repro.ir.pass_manager import PASSES
from repro.resilience import ResilienceOptions
from repro.runtime import SimulatedCommunicator, SimulatedGPU
from repro.runtime.distributed_executor import DistributedExecutor
from repro.serve import ArtifactStore, CompileService

KINDS = {"two values", "deployment", "safety bound", "test seam", "input",
         "paper text"}

#: "owner.name" -> (kind, reason).
CENSUS = {
    # -- backend options -----------------------------------------------------
    "BackendOptions.lower_to_scf": (
        "two values", "True on the four lowering backends (bench spells "
                      "it for gs96_openmp, pw64_gpu and serve_catalogue), "
                      "False on flang-only: each backend has one lowering "
                      "and refuses the other value"),
    "BackendOptions.fuse_stencils": (
        "two values", "harness ablation E9 compiles fused and unfused"),
    "BackendOptions.execution_mode": (
        "two values", "the harness vectorizes; the fuzz matrix also runs "
                      "interpret and crosscheck"),
    "BackendOptions.threads": (
        "two values", "bench gs96_openmp runs 2 threads, the rest 1"),
    "GpuOptions.data_strategy": (
        "two values", "harness Figure 5 compiles both strategies"),
    "DmpOptions.grid": (
        "two values", "harness Figure 6 decomposes over 1 to 8 ranks"),
    "ResilienceOptions.max_restarts": (
        "two values", "FAIL_FAST sets 0, the chaos runner keeps 3"),
    "ResilienceOptions.plan": (
        "two values", "the chaos runner attaches a FaultPlan, plain runs "
                      "none"),
    # -- sessions and the service -----------------------------------------
    "Session.registry": (
        "test seam", "tests register gated and failing backends"),
    "Session.store": (
        "deployment", "the on-disk artifact cache shared across processes"),
    "CompileService.session": (
        "test seam", "tests hand in a session on a gated registry"),
    "CompileService.store": (
        "deployment", "the service's on-disk artifact cache"),
    "CompileService.workers": (
        "deployment", "how many requests one host serves at once"),
    "CompileService.max_queue": (
        "safety bound", "backpressure: a full queue is ServiceRejected"),
    "CompileService.run.source": ("input", "the Fortran source to run"),
    "CompileService.run.entry": ("input", "the subroutine to call"),
    "CompileService.run.args": ("input", "the subroutine's arguments"),
    "CompileService.run.backend": (
        "input", "the target the request compiles for"),
    "CompileService.run.options": (
        "input", "a prebuilt options object the keyword overrides refine"),
    "CompileService.run.timeout": (
        "safety bound", "a request that outlives it is a ServiceTimeout"),
    "ArtifactStore.root": ("deployment", "the store directory"),
    "ArtifactStore.max_bytes": (
        "safety bound", "caps the store's disk use by eviction"),
    # -- simulated devices ---------------------------------------------------
    "SimulatedGPU.memory_bytes": (
        "two values", "the chaos runner shrinks the device to provoke "
                      "out-of-memory, other devices keep the V100's 16 GiB"),
    "SimulatedCommunicator.size": (
        "input", "the rank count of the executor's grid"),
    "SimulatedCommunicator.timeout": (
        "safety bound", "a deadlocked receive fails with a diagnostic"),
    "SimulatedCommunicator.fault_hook": (
        "two values", "the executor installs the injector's hook only "
                      "under message faults"),
    # -- distributed execution -----------------------------------------------
    "DistributedExecutor.grid": ("input", "the compiled DmpOptions.grid"),
    "DistributedExecutor.halo": (
        "input", "the compiled kernel's widest access offset (detect_halo)"),
    "DistributedExecutor.timeout": (
        "safety bound", "bounds every blocking halo receive"),
    "CompiledProgram.distribute.source_builder": (
        "two values", "the harness builds Gauss-Seidel shapes, the fuzz "
                      "farm renders its specs"),
    "CompiledProgram.distribute.entry": (
        "two values", "the fuzz farm names its entry, the harness lets it "
                      "be detected"),
    "CompiledProgram.distribute.timeout": (
        "safety bound", "bounds every rank's blocking receive"),
    "DistributedProgram.run.global_field": (
        "input", "the global array the ranks share out"),
    "DistributedProgram.run.iterations": (
        "input", "how many times every rank calls the entry"),
    "DistributedProgram.run.resilience": (
        "two values", "the chaos runner passes a policy with a FaultPlan, "
                      "the harness and bench runs none (fail-fast)"),
    # -- interpreters --------------------------------------------------------
    "CompiledProgram.interpreter.gpu": (
        "two values", "the chaos runner and harness Figure 5 pass a "
                      "device, other runs get a fresh one"),
    "CompiledProgram.interpreter.comm": (
        "input", "each rank's communicator, from the distributed plan"),
    "CompiledProgram.interpreter.rank": (
        "input", "each rank's number, from the distributed plan"),
    "CompiledProgram.interpreter.decomposition": (
        "input", "the run's decomposition, from the distributed plan"),
    # -- passes --------------------------------------------------------------
    "pass:convert-stencil-to-dmp.grid": (
        "input", "the compiled DmpOptions.grid"),
    "pass:convert-stencil-to-scf.target": (
        "two values", "the cpu pipelines target cpu, the gpu pipeline gpu"),
    "pass:discover-stencils.merge": (
        "two values", "BackendOptions.fuse_stencils"),
    "pass:gpu-data-host-register.stencil_module": (
        "input", "the extracted module edited beside the FIR module"),
    "pass:gpu-data-optimised.stencil_module": (
        "input", "the extracted module edited beside the FIR module"),
    "pass:scf-parallel-loop-tiling.parallel_loop_tile_sizes": (
        "paper text", "Listing 4 spells the tile as this pass option; "
                      "GPU_PIPELINE renders TILE_SIZES into it"),
}


def _keywords(owner, call, skip=("self",)):
    return {f"{owner}.{name}"
            for name, param in inspect.signature(call).parameters.items()
            if name not in skip
            and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)}


def _option_fields():
    classes = {BackendOptions, ResilienceOptions}
    classes.update(backend.options_cls for backend in registry)
    names = set()
    for cls in classes:
        for field in dataclasses.fields(cls):
            owner = next(c for c in cls.__mro__
                         if field.name in vars(c).get("__annotations__", {}))
            names.add(f"{owner.__name__}.{field.name}")
    return names


def surface():
    names = _option_fields()
    for owner, call in [
        ("Session", Session),
        ("CompileService", CompileService),
        ("ArtifactStore", ArtifactStore),
        ("SimulatedGPU", SimulatedGPU),
        ("SimulatedCommunicator", SimulatedCommunicator),
        ("DistributedExecutor", DistributedExecutor),
        ("CompileService.run", CompileService.run),
        ("CompiledProgram.distribute", CompiledProgram.distribute),
        ("DistributedProgram.run", DistributedProgram.run),
        ("CompiledProgram.interpreter", CompiledProgram.interpreter),
        ("PassManager", PassManager),
    ]:
        names |= _keywords(owner, call)
    names |= {f"Session.{name}" for name in vars(Session())
              if not name.startswith("_")}
    for name, pass_class in PASSES.items():
        names |= _keywords(f"pass:{name}", pass_class)
    return names


def test_every_settable_name_is_pinned_with_a_reason():
    found = surface()
    assert sorted(found - set(CENSUS)) == [], "a knob without a reason"
    assert sorted(set(CENSUS) - found) == [], "a pinned knob no longer exists"
    assert len(found) == 45


def test_the_other_calls_add_no_settable_name():
    """``submit_run`` is ``run`` without the blocking deadline, and
    ``CompiledProgram.run`` forwards its keywords to ``interpreter``: the
    census of those two covers them."""
    run = set(inspect.signature(CompileService.run).parameters)
    submit = set(inspect.signature(CompileService.submit_run).parameters)
    assert submit == run - {"timeout"}
    handle_run = inspect.signature(CompiledProgram.run).parameters
    assert [p.kind for p in handle_run.values()][-2:] == [
        inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD]


def test_each_reason_is_one_of_the_kinds():
    for name, (kind, reason) in CENSUS.items():
        assert kind in KINDS, name
        assert reason and "\n" not in reason, name
