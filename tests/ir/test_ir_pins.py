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
    "cpu-scf": ("cpu", {"lower_to_scf": True}),
    "openmp-scf": ("openmp", {}),
    "gpu-scf-optimised": ("gpu", {"data_strategy": "optimised"}),
    "gpu-scf-host_register": ("gpu", {"data_strategy": "host_register"}),
    "dmp-2x2": ("dmp", {"grid": (2, 2)}),
    "flang-only": ("flang-only", {}),
}

#: "<app>-<config>" -> (FIR module digest, stencil module digest, passes).
PINS = {
    'pw-cpu': ('4e2a2f26a3841aba', '4c8c44d25934147e', []),
    'pw-cpu-scf': ('4e2a2f26a3841aba', '73d59832ef690212', [
        ('convert-stencil-to-scf', 134, 152),
        ('canonicalize', 152, 152),
        ('cse', 152, 145),
    ]),
    'pw-openmp-scf': ('4e2a2f26a3841aba', '45be77b4fc73bde6', [
        ('convert-stencil-to-scf', 134, 152),
        ('convert-scf-to-openmp', 152, 154),
        ('canonicalize', 154, 154),
        ('cse', 154, 147),
    ]),
    'pw-gpu-scf-optimised': ('2add514c81d852d5', 'c15812ea0ad0524d', [
        ('convert-stencil-to-scf', 180, 194),
        ('scf-parallel-loop-tiling', 194, 194),
        ('canonicalize', 194, 194),
        ('convert-parallel-loops-to-gpu', 194, 227),
        ('canonicalize', 227, 220),
        ('reconcile-unrealized-casts', 220, 220),
    ]),
    'pw-gpu-scf-host_register': ('f892d6a40f3e10bf', 'e8aee15298ff8d82', [
        ('convert-stencil-to-scf', 142, 156),
        ('scf-parallel-loop-tiling', 156, 156),
        ('canonicalize', 156, 156),
        ('convert-parallel-loops-to-gpu', 156, 189),
        ('canonicalize', 189, 182),
        ('reconcile-unrealized-casts', 182, 182),
    ]),
    'pw-dmp-2x2': ('4e2a2f26a3841aba', '413ce2592a62f065', [
        ('convert-stencil-to-dmp', 134, 138),
        ('convert-dmp-to-mpi', 138, 204),
    ]),
    'pw-flang-only': ('2c2383fc6f74d207', None, []),
    'gs-cpu': ('08c4138c8e683902', '868110dc73364dc1', []),
    'gs-cpu-scf': ('08c4138c8e683902', '9f53c5d5919261d2', [
        ('convert-stencil-to-scf', 21, 39),
        ('canonicalize', 39, 39),
        ('cse', 39, 34),
    ]),
    'gs-openmp-scf': ('08c4138c8e683902', '76b6efc24268c5ad', [
        ('convert-stencil-to-scf', 21, 39),
        ('convert-scf-to-openmp', 39, 41),
        ('canonicalize', 41, 41),
        ('cse', 41, 36),
    ]),
    'gs-gpu-scf-optimised': ('65d370f4d44cced4', '9d8c7ad3bad66e79', [
        ('convert-stencil-to-scf', 33, 47),
        ('scf-parallel-loop-tiling', 47, 47),
        ('canonicalize', 47, 47),
        ('convert-parallel-loops-to-gpu', 47, 80),
        ('canonicalize', 80, 73),
        ('reconcile-unrealized-casts', 73, 73),
    ]),
    'gs-gpu-scf-host_register': ('9f38ebdb9fa38d59', '4a8892e2adfddcc6', [
        ('convert-stencil-to-scf', 24, 38),
        ('scf-parallel-loop-tiling', 38, 38),
        ('canonicalize', 38, 38),
        ('convert-parallel-loops-to-gpu', 38, 71),
        ('canonicalize', 71, 64),
        ('reconcile-unrealized-casts', 64, 64),
    ]),
    'gs-dmp-2x2': ('08c4138c8e683902', 'baca64fe5c3b6d76', [
        ('convert-stencil-to-dmp', 21, 23),
        ('convert-dmp-to-mpi', 23, 45),
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
