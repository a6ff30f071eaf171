"""The compiled IR, pinned: every artifact module prints the same text, and
every pass leaves the same number of operations, as at the commit that
stopped lowerings from cloning what they keep (each moves it instead) and
stopped re-verifying a module no pass changed.

Each pin is the first 16 hex digits of the sha256 of ``print_module`` of the
artifact's FIR and stencil modules, then each pass's ``(name, ops_before,
ops_after)``.  A change that means to alter the IR updates the pins it
alters, and says why.
"""

import hashlib

import pytest

import repro
from repro.apps import gauss_seidel, pw_advection
from repro.ir import print_module

N = 8
SOURCES = {
    "pw": pw_advection.generate_source(N, niters=2),
    "gs": gauss_seidel.generate_source(N, niters=3),
}
CONFIGS = {
    "cpu": ("cpu", {}),
    "openmp-scf": ("openmp", {}),
    "gpu-scf-optimised": ("gpu", {"data_strategy": "optimised"}),
    "gpu-scf-host_register": ("gpu", {"data_strategy": "host_register"}),
    "dmp-2x2": ("dmp", {"grid": (2, 2)}),
    "flang-only": ("flang-only", {}),
}

#: "<app>-<config>" -> (FIR module digest, stencil module digest, passes).
PINS = {
    'pw-cpu': ('4e2a2f26a3841aba', 'aaa8866bf1d4cbc0', [
        ('convert-stencil-to-scf', 134, 145),
    ]),
    'pw-openmp-scf': ('4e2a2f26a3841aba', '2dfdd651e59cd26d', [
        ('convert-stencil-to-scf', 134, 145),
        ('convert-scf-to-openmp', 145, 147),
    ]),
    'pw-gpu-scf-optimised': ('2add514c81d852d5', 'c15812ea0ad0524d', [
        ('convert-stencil-to-scf', 180, 189),
        ('scf-parallel-loop-tiling', 189, 189),
        ('canonicalize', 189, 189),
        ('convert-parallel-loops-to-gpu', 189, 222),
        ('canonicalize', 222, 220),
        ('reconcile-unrealized-casts', 220, 220),
    ]),
    'pw-gpu-scf-host_register': ('f892d6a40f3e10bf', 'e8aee15298ff8d82', [
        ('convert-stencil-to-scf', 142, 151),
        ('scf-parallel-loop-tiling', 151, 151),
        ('canonicalize', 151, 151),
        ('convert-parallel-loops-to-gpu', 151, 184),
        ('canonicalize', 184, 182),
        ('reconcile-unrealized-casts', 182, 182),
    ]),
    'pw-dmp-2x2': ('4e2a2f26a3841aba', '83847330b9c14f04', [
        ('convert-stencil-to-dmp', 134, 138),
        ('convert-dmp-to-mpi', 138, 178),
        ('convert-stencil-to-scf', 178, 189),
    ]),
    'pw-flang-only': ('2c2383fc6f74d207', None, []),
    'gs-cpu': ('08c4138c8e683902', '1cca8a02903317db', [
        ('convert-stencil-to-scf', 21, 34),
    ]),
    'gs-openmp-scf': ('08c4138c8e683902', '4d7b3b3a06695849', [
        ('convert-stencil-to-scf', 21, 34),
        ('convert-scf-to-openmp', 34, 36),
    ]),
    'gs-gpu-scf-optimised': ('65d370f4d44cced4', '9d8c7ad3bad66e79', [
        ('convert-stencil-to-scf', 33, 42),
        ('scf-parallel-loop-tiling', 42, 42),
        ('canonicalize', 42, 42),
        ('convert-parallel-loops-to-gpu', 42, 75),
        ('canonicalize', 75, 73),
        ('reconcile-unrealized-casts', 73, 73),
    ]),
    'gs-gpu-scf-host_register': ('9f38ebdb9fa38d59', '4a8892e2adfddcc6', [
        ('convert-stencil-to-scf', 24, 33),
        ('scf-parallel-loop-tiling', 33, 33),
        ('canonicalize', 33, 33),
        ('convert-parallel-loops-to-gpu', 33, 66),
        ('canonicalize', 66, 64),
        ('reconcile-unrealized-casts', 64, 64),
    ]),
    'gs-dmp-2x2': ('08c4138c8e683902', '2235df7fe867fbd2', [
        ('convert-stencil-to-dmp', 21, 23),
        ('convert-dmp-to-mpi', 23, 39),
        ('convert-stencil-to-scf', 39, 52),
    ]),
    'gs-flang-only': ('b887dd412478aaa3', None, []),
}


def digest(module):
    if module is None:
        return None
    return hashlib.sha256(print_module(module).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", PINS)
def test_artifact_modules_and_pass_counts_match_their_pins(name):
    app, config = name.split("-", 1)
    backend, options = CONFIGS[config]
    handle = repro.Session().compile(SOURCES[app]).lower(backend, **options)
    fir, stencil, passes = PINS[name]
    assert (digest(handle.fir_module), digest(handle.stencil_module)) == (fir, stencil)
    assert [(s.name, s.ops_before, s.ops_after)
            for s in handle.pass_statistics] == passes
