"""Seeded generative round-trip tests for the frontend and the IR text.

The deterministic kernel generator lives in :mod:`repro.fuzz.generator`
(it started here and was promoted when the differential fuzz farm grew
around it); these tests keep its parse-only contract pinned: for every
seed the full frontend must succeed (lex → parse → FIR generation +
verification), and the printed IR must re-parse to a structurally equal
module (equal printed form, which for the generic syntax is a structural
identity).
"""

import random

from repro.frontend import compile_to_fir, parse_source, tokenize
from repro.fuzz.generator import gen_expression, gen_kernel
from repro.ir import parse_module, print_module


def pytest_generate_tests(metafunc):
    # 40 seeds in tier-1; ``--fuzz-seeds N`` deepens the sweep (CI: 100).
    if "seed" in metafunc.fixturenames:
        depth = max(40, metafunc.config.getoption("--fuzz-seeds"))
        metafunc.parametrize("seed", range(depth))


def test_generated_kernel_roundtrips(seed):
    source = gen_kernel(seed)
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
    assert gen_kernel(7) == gen_kernel(7)
    assert gen_kernel(7) != gen_kernel(8)


def test_generator_covers_every_rank():
    ranks = {random.Random(seed).randrange(1, 4) for seed in range(40)}
    assert ranks == {1, 2, 3}


def test_gen_expression_importable_and_deterministic():
    rng_a, rng_b = random.Random(3), random.Random(3)
    arrays = [("a", 2)]
    expr_a = gen_expression(rng_a, arrays, ("i", "j"), depth=3)
    expr_b = gen_expression(rng_b, arrays, ("i", "j"), depth=3)
    assert expr_a == expr_b
