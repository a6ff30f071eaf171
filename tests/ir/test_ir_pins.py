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
        ('convert-stencil-to-scf', 134, 241),
        ('canonicalize', 241, 241),
        ('cse', 241, 145),
    ]),
    'pw-openmp-scf': ('4e2a2f26a3841aba', '45be77b4fc73bde6', [
        ('convert-stencil-to-scf', 134, 241),
        ('convert-scf-to-openmp', 241, 243),
        ('canonicalize', 243, 243),
        ('cse', 243, 147),
    ]),
    'pw-gpu-scf-optimised': ('2add514c81d852d5', '5aee26844e7cad97', [
        ('convert-stencil-to-scf', 180, 283),
        ('scf-parallel-loop-tiling', 283, 283),
        ('canonicalize', 283, 283),
        ('convert-parallel-loops-to-gpu', 283, 316),
        ('canonicalize', 316, 309),
        ('reconcile-unrealized-casts', 309, 309),
    ]),
    'pw-gpu-scf-host_register': ('f892d6a40f3e10bf', 'b5d72003cde79149', [
        ('convert-stencil-to-scf', 142, 245),
        ('scf-parallel-loop-tiling', 245, 245),
        ('canonicalize', 245, 245),
        ('convert-parallel-loops-to-gpu', 245, 278),
        ('canonicalize', 278, 271),
        ('reconcile-unrealized-casts', 271, 271),
    ]),
    'pw-dmp-2x2': ('4e2a2f26a3841aba', '413ce2592a62f065', []),
    'pw-flang-only': ('2c2383fc6f74d207', None, []),
    'gs-cpu': ('08c4138c8e683902', '868110dc73364dc1', []),
    'gs-cpu-scf': ('08c4138c8e683902', '9f53c5d5919261d2', [
        ('convert-stencil-to-scf', 21, 44),
        ('canonicalize', 44, 44),
        ('cse', 44, 34),
    ]),
    'gs-openmp-scf': ('08c4138c8e683902', '76b6efc24268c5ad', [
        ('convert-stencil-to-scf', 21, 44),
        ('convert-scf-to-openmp', 44, 46),
        ('canonicalize', 46, 46),
        ('cse', 46, 36),
    ]),
    'gs-gpu-scf-optimised': ('65d370f4d44cced4', 'b291962197812de3', [
        ('convert-stencil-to-scf', 33, 52),
        ('scf-parallel-loop-tiling', 52, 52),
        ('canonicalize', 52, 52),
        ('convert-parallel-loops-to-gpu', 52, 85),
        ('canonicalize', 85, 78),
        ('reconcile-unrealized-casts', 78, 78),
    ]),
    'gs-gpu-scf-host_register': ('9f38ebdb9fa38d59', '6b02ea91820d494b', [
        ('convert-stencil-to-scf', 24, 43),
        ('scf-parallel-loop-tiling', 43, 43),
        ('canonicalize', 43, 43),
        ('convert-parallel-loops-to-gpu', 43, 76),
        ('canonicalize', 76, 69),
        ('reconcile-unrealized-casts', 69, 69),
    ]),
    'gs-dmp-2x2': ('08c4138c8e683902', 'baca64fe5c3b6d76', []),
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
