"""``python -m repro.fuzz --store DIR``: farm churn over the on-disk store.

The exit-code contract (0 clean / 1 divergence / 2 crash) is unchanged by
the store flag, and a second run over the same directory reloads compiled
artifacts instead of lowering them again.
"""

import re

from repro.fuzz.__main__ import main as fuzz_main, run as fuzz_run
from repro.serve import ArtifactStore


class TestFuzzStoreFlag:
    def test_clean_run_with_store_exits_zero_and_populates_dir(
            self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert fuzz_main(["--seeds", "3", "--store", str(store_dir),
                          "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "fuzz_summary" in out
        assert "disk hits" in out  # the store-backed cache note is rendered
        store = ArtifactStore(store_dir)
        assert len(store) > 0, "farm compiles must land in the store"

    def test_warm_rerun_reloads_from_store(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        args = ["--seeds", "3", "--store", str(store_dir), "--quiet"]
        assert fuzz_main(args) == 0
        writes_cold = ArtifactStore(store_dir).stats  # fresh handle: zeros
        entries_cold = len(ArtifactStore(store_dir))
        capsys.readouterr()

        assert fuzz_main(args) == 0
        out = capsys.readouterr().out
        # Same seeds, same specs: every distinct artifact reloads from disk.
        assert len(ArtifactStore(store_dir)) == entries_cold
        disk_hits = [line for line in out.splitlines()
                     if "disk hits" in line]
        assert disk_hits, out
        assert not re.search(r"\b0 disk hits", disk_hits[0])
        assert writes_cold == ArtifactStore(store_dir).stats  # handles independent

    def test_exit_code_contract_pinned_with_store(self, tmp_path):
        # Usage errors still exit 2 with the flag present.
        assert fuzz_run(["--store", str(tmp_path / "s"),
                         "--no-such-flag"]) == 2
