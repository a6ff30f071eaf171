"""Chaos mode end-to-end, its report rendering, and the CLI exit codes.

The chaos smoke is the subsystem's integration bar: several seeds, every
scenario, zero divergences and zero unrecovered faults.  The CLI contract
(0 clean / 1 divergence / 2 harness crash) is pinned so CI can rely on it.
"""

import pytest

from repro.fuzz import (
    DEFAULT_CONFIG,
    ChaosRunner,
    Divergence,
    Farm,
    Report,
    generate_spec,
)
from repro.fuzz.__main__ import main as fuzz_main, run as fuzz_run
from repro.harness import recovery_report_table
from repro.resilience import RecoveryReport


class TestChaosFarm:
    def test_smoke_recovers_every_seed_bitwise(self):
        # Seeds 0-5 cover both general and distributed-style specs, so both
        # scenarios (dmp, gpu) run at least once.
        report = Farm(ChaosRunner(), count=6).run()
        assert report.cases == 6
        assert report.configs_run >= 8
        assert report.divergences == []
        assert report.recovery.unrecovered == 0
        assert report.recovery.faults_injected > 0
        # The gpu scenario's small devices miss for real and stage in host
        # memory.
        assert report.recovery.oom_detected > 0
        assert report.recovery.oom_host_staged > 0
        assert report.ok

    def test_distributed_seed_exercises_checkpoint_restart(self):
        styles = {generate_spec(seed, DEFAULT_CONFIG).style
                  for seed in range(6)}
        assert "distributed" in styles  # the smoke above covered dmp-chaos
        report = Farm(ChaosRunner(), seeds=[1]).run()  # seed 1 is distributed-style
        assert report.recovery.injected.get("crash", 0) >= 1
        assert report.recovery.checkpoint_restores >= 1
        assert report.ok

    def test_chaos_is_deterministic(self):
        first = Farm(ChaosRunner(), count=3).run()
        second = Farm(ChaosRunner(), count=3).run()
        assert first.recovery.injected == second.recovery.injected
        assert first.configs_run == second.configs_run

    def test_a_mismatch_is_an_unrecovered_divergence_that_replays_in_chaos(
            self, monkeypatch):
        chaos = ChaosRunner()
        monkeypatch.setattr(chaos.runner, "compare",
                            lambda expected, actual: (("u",), 0.5))
        result = chaos.run_case(generate_spec(1, DEFAULT_CONFIG))
        labels = [d.config_label for d in result.divergences]
        assert labels == ["dmp-chaos", "gpu-chaos"]
        assert result.recovery.unrecovered == 2
        for divergence in result.divergences:
            assert divergence.kind == "bitwise"
            assert divergence.backend == "chaos"
            assert divergence.arrays == ("u",)
            assert divergence.max_abs_diff == 0.5
            assert divergence.repro_command.endswith(
                "repro.fuzz --chaos --seeds 1 --start-seed 1")

    def test_time_budget_skips_remaining_seeds(self):
        report = Farm(ChaosRunner(), count=5, time_budget=0.0).run()
        assert report.budget_exhausted
        assert report.seeds_skipped == 5
        assert report.cases == 0


class TestRecoveryReportTable:
    def test_renders_injections_mechanisms_and_verdict(self):
        report = Farm(ChaosRunner(), count=2).run()
        table = recovery_report_table(report)
        assert "chaos_recovery" in table
        assert "injected[" in table
        assert "unrecovered" in table
        assert "note[verdict] = clean" in table
        assert "note[cases] = 2" in table

    def test_renders_bare_recovery_report(self):
        recovery = RecoveryReport()
        recovery.record_injected("drop")
        recovery.receive_retries = 2
        table = recovery_report_table(recovery)
        assert "injected[drop]" in table
        assert "receive_retries" in table
        assert "note[cases]" not in table

    def test_unrecovered_verdict(self):
        recovery = RecoveryReport()
        recovery.unrecovered = 1
        assert "note[verdict] = NOT RECOVERED" in recovery_report_table(recovery)


class TestCliExitCodes:
    def test_clean_chaos_run_exits_zero(self, capsys):
        assert fuzz_main(["--chaos", "--seeds", "2", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "chaos_recovery" in out
        assert "note[verdict] = clean" in out

    def test_divergence_exits_one(self, capsys, monkeypatch):
        import repro.fuzz.__main__ as cli

        class DivergingFarm:
            def __init__(self, scenario, **kwargs):
                pass

            def run(self, on_case=None):
                report = Report(cases=1, configs_run=1)
                report.divergences.append(Divergence(
                    seed=0, config_label="gpu-chaos", backend="chaos",
                    kind="bitwise", detail="recovered outputs differ",
                    spec=generate_spec(0, DEFAULT_CONFIG),
                    replay_flags="--chaos --seeds 1 --start-seed 0"))
                return report

        monkeypatch.setattr(cli, "Farm", DivergingFarm)
        assert cli.main(["--chaos", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "recovered outputs differ" in out
        assert "repro.fuzz --chaos --seeds 1 --start-seed 0" in out

    def test_unrecovered_fault_exits_one(self, monkeypatch):
        import repro.fuzz.__main__ as cli

        class UnrecoveredFarm:
            def __init__(self, scenario, **kwargs):
                pass

            def run(self, on_case=None):
                report = Report(cases=1, configs_run=1)
                report.recovery.unrecovered = 1
                return report

        monkeypatch.setattr(cli, "Farm", UnrecoveredFarm)
        assert cli.main(["--chaos", "--quiet"]) == 1

    def test_harness_crash_exits_two(self, capsys, monkeypatch):
        import repro.fuzz.__main__ as cli

        def exploding_main(argv=None):
            raise RuntimeError("the harness itself fell over")

        monkeypatch.setattr(cli, "main", exploding_main)
        assert cli.run(["--chaos"]) == 2
        assert "the harness itself fell over" in capsys.readouterr().err

    def test_usage_error_exits_two(self, capsys):
        assert fuzz_run(["--no-such-flag"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--seeds", "-4", "--chaos"], ["--seeds", "0"]])
    def test_seeds_must_be_positive(self, capsys, flags):
        assert fuzz_run(flags + ["--quiet"]) == 2
        assert "--seeds: must be at least 1" in capsys.readouterr().err
