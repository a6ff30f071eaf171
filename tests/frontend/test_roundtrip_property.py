"""Seeded generative round-trip tests for the frontend and the IR text.

The kernels are the fuzz farm's own: :func:`repro.fuzz.generate_spec`
rendered to Fortran, with ``tan`` added to the intrinsics since nothing here
executes them.  For every seed the full frontend must succeed (lex → parse →
FIR generation + verification), and the printed IR must re-parse to a
structurally equal module (equal printed form, which for the generic syntax
is a structural identity).
"""

from repro.frontend import compile_to_fir, parse_source, tokenize
from repro.fuzz.generator import EXECUTABLE_INTRINSICS, GeneratorConfig, generate_spec
from repro.ir import parse_module, print_module

CONFIG = GeneratorConfig(intrinsics=EXECUTABLE_INTRINSICS + ("tan",))


def render(seed):
    return generate_spec(seed, CONFIG).render()


def pytest_generate_tests(metafunc):
    # 40 seeds in tier-1; ``--fuzz-seeds N`` deepens the sweep (CI: 100).
    if "seed" in metafunc.fixturenames:
        depth = max(40, metafunc.config.getoption("--fuzz-seeds"))
        metafunc.parametrize("seed", range(depth))


def test_generated_kernel_roundtrips(seed):
    source = render(seed)
    # lex → parse → FIR generation must all succeed...
    assert tokenize(source)
    assert parse_source(source).units
    module = compile_to_fir(source)
    module.verify()
    # ... and the printed module must re-parse to a structurally equal one.
    text = print_module(module)
    reparsed = parse_module(text)
    reparsed.verify()
    assert print_module(reparsed) == text


def test_generator_is_deterministic():
    assert render(7) == render(7)
    assert render(7) != render(8)


def test_generator_covers_every_rank():
    ranks = {generate_spec(seed, CONFIG).rank for seed in range(40)}
    assert ranks == {1, 2, 3}
