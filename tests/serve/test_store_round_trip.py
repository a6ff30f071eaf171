"""A store reload is the artifact that was saved, on every configuration.

PW and GS (n=12, niters=2) are lowered through a store by one session and
reloaded by another.  Each reloaded module must print byte-identical to the
saved one, bodiless FIR declarations and name hints included, and run to the
same output bits as the fresh compile; a GS 2x2 ``distribute`` must also send
the same messages and bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.api import Session
from repro.apps import gauss_seidel, pw_advection
from repro.ir import print_module
from repro.serve import ArtifactStore

CONFIGS = {
    "flang-only": ("flang-only", {}),
    "cpu-interpret": ("cpu", {"execution_mode": "interpret"}),
    "cpu-vectorize": ("cpu", {"execution_mode": "vectorize"}),
    "cpu-crosscheck": ("cpu", {"execution_mode": "crosscheck"}),
    "openmp-scf-t2": ("openmp", {"lower_to_scf": True, "threads": 2,
                                 "execution_mode": "vectorize"}),
    "openmp-scf-t4": ("openmp", {"lower_to_scf": True, "threads": 4,
                                 "execution_mode": "vectorize"}),
    "gpu-scf-optimised": ("gpu", {"lower_to_scf": True,
                                  "execution_mode": "vectorize"}),
    "gpu-scf-host_register": ("gpu", {
        "lower_to_scf": True, "data_strategy": "host_register",
        "execution_mode": "vectorize"}),
    "dmp-2x2": ("dmp", {"grid": (2, 2), "execution_mode": "vectorize"}),
}

N, NITERS = 12, 2


def pw_run(handle):
    fields = [f.copy(order="F") for f in pw_advection.initial_fields(N)]
    handle.run("pw_advection", *fields)
    return fields[3:]


def gs_run(handle):
    u = gauss_seidel.initial_condition(N)
    handle.run("gauss_seidel", u)
    return [u]


APPS = {
    "pw": (pw_advection.generate_source(N, niters=NITERS), pw_run),
    "gs": (gauss_seidel.generate_source(N, niters=NITERS), gs_run),
}


def output_hash(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def name_hints(module):
    hints = []
    for op in module.walk():
        for region in op.regions:
            for block in region.blocks:
                hints += [arg.name_hint for arg in block.args]
        hints += [result.name_hint for result in op.results]
    return hints


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("app", list(APPS))
def test_reload_is_the_saved_artifact(tmp_path, app, config):
    source, run = APPS[app]
    backend, options = CONFIGS[config]
    fresh = Session(store=ArtifactStore(tmp_path)).lower(source, backend,
                                                         **options)
    saved = [print_module(module) for module in fresh.modules]
    cold = Session(store=ArtifactStore(tmp_path))
    reloaded = cold.lower(source, backend, **options)
    assert cold.cache_stats["disk_hits"] == 1 and cold.cache_stats["misses"] == 0
    assert [print_module(module) for module in reloaded.modules] == saved
    assert [name_hints(m) for m in reloaded.modules] == \
        [name_hints(m) for m in fresh.modules]
    declarations = [op for op in reloaded.fir_module.walk()
                    if op.name == "func.func" and not op.regions[0].blocks]
    assert declarations or backend == "flang-only"
    if backend != "dmp":
        assert output_hash(run(reloaded)) == output_hash(run(fresh))


def test_a_reloaded_distributed_plan_sends_the_same_messages(tmp_path):
    field = np.asfortranarray(np.random.default_rng(3).random((N, N, N)))

    def distributed(session):
        compiled = session.compile(
            gauss_seidel.generate_source_shaped((N + 2,) * 3)).lower(
                "dmp", grid=(2, 2), execution_mode="vectorize")
        plan = compiled.distribute(
            source_builder=gauss_seidel.generate_source_shaped)
        return plan.run(field, iterations=NITERS)

    fresh = distributed(Session(store=ArtifactStore(tmp_path)))
    cold = Session(store=ArtifactStore(tmp_path))
    reloaded = distributed(cold)
    assert cold.cache_stats["misses"] == 0 and cold.cache_stats["disk_hits"] >= 1
    assert reloaded.field.tobytes() == fresh.field.tobytes()
    assert (reloaded.messages, reloaded.bytes) == (fresh.messages, fresh.bytes)
    assert [(s.messages, s.bytes) for s in reloaded.rank_stats] == \
        [(s.messages, s.bytes) for s in fresh.rank_stats]
