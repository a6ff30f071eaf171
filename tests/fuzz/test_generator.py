"""The executable-kernel generator: determinism, replay, coverage, safety."""

import pytest

from repro.frontend import compile_to_fir
from repro.fuzz.generator import (
    DEFAULT_CONFIG,
    GeneratorConfig,
    KernelSpec,
    generate_spec,
)

SEEDS = range(60)


def test_same_seed_same_spec():
    assert generate_spec(5) == generate_spec(5)
    assert generate_spec(5) != generate_spec(6)


def test_spec_replays_from_seed_and_config():
    """(seed, config) is the full replay identity: a spec round-trips
    through its dict form, and regeneration reproduces it exactly."""
    config = GeneratorConfig(max_rank=2, max_statements=1)
    spec = generate_spec(9, config)
    assert generate_spec(9, config) == spec
    assert KernelSpec.from_dict(spec.to_dict()) == spec
    assert GeneratorConfig.from_dict(config.to_dict()) == config


def test_a_corpus_entry_with_a_trace_key_still_loads():
    """Corpus files written when specs carried their decision trace load
    unchanged: ``from_dict`` reads the spec's fields and nothing else."""
    spec = generate_spec(3)
    data = dict(spec.to_dict(), trace=[["style", 0.5]])
    assert KernelSpec.from_dict(data) == spec


def test_covers_every_rank_and_both_styles():
    specs = [generate_spec(seed) for seed in SEEDS]
    assert {spec.rank for spec in specs} == {1, 2, 3}
    assert {spec.style for spec in specs} == {"general", "distributed"}


def test_distributed_specs_are_star_shaped_single_array():
    """The dmp scatter/halo machinery requires orthogonal (star) stencils
    on one field argument of rank >= 2."""
    seen = 0
    for seed in SEEDS:
        spec = generate_spec(seed)
        if spec.style != "distributed":
            continue
        seen += 1
        assert spec.rank >= 2
        assert spec.arrays == ("a",)
        assert not spec.has_scalar
        assert spec.max_offset <= 1
    assert seen > 5


def test_extents_cover_every_offset():
    for seed in SEEDS:
        spec = generate_spec(seed)
        assert all(extent >= spec.min_extent for extent in spec.extents)


@pytest.mark.parametrize("seed", range(25))
def test_rendered_spec_compiles_and_verifies(seed):
    module = compile_to_fir(generate_spec(seed).render())
    module.verify()


def test_render_with_shape_override_redeclares_extents():
    spec = generate_spec(1)
    override = tuple(extent + 4 for extent in spec.extents)
    source = spec.render(shape=override)
    for dim, extent in enumerate(override):
        assert f"n{dim + 1} = {extent}" in source
    module = compile_to_fir(source)
    module.verify()


def test_default_config_is_frozen_and_serialisable():
    with pytest.raises(Exception):
        DEFAULT_CONFIG.max_rank = 99  # frozen dataclass
    assert GeneratorConfig.from_dict(DEFAULT_CONFIG.to_dict()) == DEFAULT_CONFIG
