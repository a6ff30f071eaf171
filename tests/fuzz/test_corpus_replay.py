"""Corpus round-trip and the tier-1 regression replay.

Every committed ``fuzz/corpus/`` entry is a minimized kernel on which a
configuration once diverged; the bug is fixed (or was injected test-only),
so replaying the spec through the full differential matrix must report
zero divergences.  This is the standing safety net: a future miscompile
that resurrects an old bug fails here with the replay command attached.
"""

import pytest

from repro.fuzz import (
    DEFAULT_CORPUS_DIR,
    DifferentialRunner,
    entry_from_divergence,
    generate_spec,
    load_corpus,
    minimize_and_save,
    replay_entry,
    save_entry,
)
from repro.fuzz.__main__ import main as fuzz_main

CORPUS = load_corpus()


def test_committed_corpus_is_nonempty():
    assert DEFAULT_CORPUS_DIR.is_dir()
    assert CORPUS, "the seeded corpus entries must be committed"


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_entry_replays_clean(entry):
    divergences = replay_entry(entry)
    details = "\n".join(d.describe() for d in divergences)
    assert not divergences, f"corpus regression {entry.name}:\n{details}"


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_entry_has_replayable_metadata(entry):
    assert entry.repro_command.startswith("PYTHONPATH=src python -m repro.fuzz")
    assert entry.spec.size() <= entry.original_size
    rendered = (DEFAULT_CORPUS_DIR / f"{entry.name}.f90").read_text()
    assert rendered == entry.spec.render()


def test_save_load_roundtrip(tmp_path):
    spec = generate_spec(23)
    runner = DifferentialRunner()
    result = runner.run_case(spec)
    assert result.ok
    # Build an entry by hand (no divergence needed for the round-trip).
    from repro.fuzz.runner import Divergence

    divergence = Divergence(seed=23, config_label="cpu/vectorize",
                            backend="cpu", kind="bitwise",
                            detail="synthetic", spec=spec)
    entry = entry_from_divergence(divergence, spec)
    path = save_entry(entry, tmp_path)
    assert path.exists()
    assert (tmp_path / f"{entry.name}.f90").exists()
    loaded = load_corpus(tmp_path)
    assert len(loaded) == 1
    assert loaded[0].spec == spec
    assert loaded[0].config_label == "cpu/vectorize"


def test_minimize_and_save_full_capture_path(tmp_path):
    """The farm's end-to-end capture: injected fault -> caught -> minimized
    -> persisted -> loadable -> replays clean without the fault."""
    label = "gpu-scf/vectorize"

    def fault(spec, cfg_label, outputs):
        if cfg_label == label:
            outputs[spec.arrays[0]].flat[0] += 1e-9

    faulty = DifferentialRunner(fault_hook=fault)
    spec = generate_spec(17)
    divergence = next(d for d in faulty.run_case(spec).divergences
                      if d.config_label == label)
    entry = minimize_and_save(divergence, faulty, corpus_dir=tmp_path)
    assert entry.spec.size() < spec.size()
    loaded = load_corpus(tmp_path)[0]
    assert loaded.spec == entry.spec
    # Without the hook the minimized kernel is clean across the full matrix.
    assert not replay_entry(loaded, DifferentialRunner())


class TestReplayCli:
    """``python -m repro.fuzz --replay-seed`` / ``--replay-corpus``."""

    def test_replay_seed_checks_a_known_label(self, capsys):
        assert fuzz_main(["--replay-seed", "3", "--config",
                          "cpu/vectorize"]) == 0
        assert "[cpu/vectorize] ok" in capsys.readouterr().out

    def test_replay_seed_refuses_an_unknown_label(self, capsys):
        assert fuzz_main(["--replay-seed", "3", "--config",
                          "no/such-config"]) == 2
        captured = capsys.readouterr()
        assert "[no/such-config]" not in captured.out
        assert "unknown configuration 'no/such-config'" in captured.err
        assert "cpu/vectorize" in captured.err

    def test_replay_corpus_of_one_entry(self, tmp_path, capsys):
        entry = CORPUS[0]
        for suffix in (".json", ".f90"):
            name = entry.name + suffix
            (tmp_path / name).write_text(
                (DEFAULT_CORPUS_DIR / name).read_text())
        assert fuzz_main(["--replay-corpus", "--corpus", str(tmp_path),
                          "--backends", "cpu"]) == 0
        out = capsys.readouterr().out
        assert f"{entry.name} [{entry.config_label}] ok" in out
        assert "1 corpus entries replayed, 0 regressions" in out

    def test_replay_of_an_empty_corpus(self, tmp_path, capsys):
        assert fuzz_main(["--replay-corpus", "--corpus", str(tmp_path)]) == 0
        assert "is empty" in capsys.readouterr().out
