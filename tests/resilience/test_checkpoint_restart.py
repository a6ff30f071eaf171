"""Checkpoint/restart: rank crashes recovered at wave boundaries.

The acceptance bar for the whole resilience subsystem: a distributed
Gauss-Seidel run under a serialized FaultPlan — message faults plus a
mid-run rank crash — produces output **bitwise identical** to the
fault-free run, with the recovery visible in the RecoveryReport.
"""

import numpy as np
import pytest

from repro.api import OptionError, Session
from repro.apps import gauss_seidel
from repro.resilience import (
    CommFault,
    FaultPlan,
    RankCrash,
    RecoveryReport,
    ResilienceError,
    ResilienceOptions,
)
from repro.runtime import MPIError


@pytest.fixture(scope="module")
def session():
    return Session()


def plan_for(session, grid, n, timeout=10.0):
    program = session.compile(
        gauss_seidel.generate_source_shaped((n + 2,) * 3, niters=1))
    compiled = program.lower("dmp", grid=grid, execution_mode="vectorize")
    return compiled.distribute(
        source_builder=gauss_seidel.generate_source_shaped, timeout=timeout)


def global_field(n, seed=5):
    rng = np.random.default_rng(seed)
    return np.asfortranarray(rng.random((n, n, n)))


class TestCrashRecovery:
    def test_rank_crash_recovers_bitwise(self, session):
        field = global_field(12)
        plan = plan_for(session, (2, 1), 12)
        baseline = plan.run(field, iterations=3)
        crashed = plan.run(field, iterations=3, resilience=ResilienceOptions(
            plan=FaultPlan(rank_crashes=(RankCrash(rank=1, iteration=1),))))
        np.testing.assert_array_equal(crashed.field, baseline.field)
        assert crashed.recovery.crashes_detected == 1
        assert crashed.recovery.checkpoint_restores == 1
        assert crashed.recovery.rank_respawns == 2
        assert crashed.recovery.ok

    def test_crash_at_iteration_zero_recovers(self, session):
        field = global_field(12)
        plan = plan_for(session, (2, 1), 12)
        baseline = plan.run(field, iterations=2)
        crashed = plan.run(field, iterations=2, resilience=ResilienceOptions(
            plan=FaultPlan(rank_crashes=(RankCrash(rank=0, iteration=0),))))
        np.testing.assert_array_equal(crashed.field, baseline.field)
        assert crashed.recovery.checkpoint_restores == 1

    def test_repeated_crashes_exhaust_restart_budget(self, session):
        field = global_field(12)
        plan = plan_for(session, (2, 1), 12)
        crashes = tuple(RankCrash(rank=0, iteration=0) for _ in range(3))
        with pytest.raises(MPIError, match="gave up after 2 restarts"):
            plan.run(field, iterations=2, resilience=ResilienceOptions(
                max_restarts=2, plan=FaultPlan(rank_crashes=crashes)))

    def test_policy_belongs_to_one_run(self, session):
        """The recovery policy is a ``run`` argument, never stored on the
        plan: the run after a recovered one is fail-fast again."""
        field = global_field(12)
        plan = plan_for(session, (2, 1), 12)
        baseline = plan.run(field, iterations=2)
        recovered = plan.run(field, iterations=2, resilience=ResilienceOptions(
            plan=FaultPlan(rank_crashes=(RankCrash(rank=1, iteration=0),))))
        after = plan.run(field, iterations=2)
        np.testing.assert_array_equal(recovered.field, baseline.field)
        np.testing.assert_array_equal(after.field, baseline.field)
        assert recovered.recovery.checkpoint_restores == 1
        assert after.recovery.checkpoint_restores == 0
        assert after.recovery.checkpoint_saves == 0

    def test_stats_carried_across_restart(self, session):
        """The retired generation's communication is folded into the final
        stats: a crashed-and-restarted run reports at least the fault-free
        run's message volume, never less."""
        field = global_field(12)
        plan = plan_for(session, (2, 1), 12)
        baseline = plan.run(field, iterations=3)
        crashed = plan.run(field, iterations=3, resilience=ResilienceOptions(
            plan=FaultPlan(rank_crashes=(RankCrash(rank=1, iteration=1),))))
        assert crashed.messages >= baseline.messages


class TestPolicyIsNotAFork:
    """One run loop: the recovery policy decides whether the fleet meets and
    checkpoints at every iteration, never what it computes."""

    def test_policy_never_changes_bits(self, session):
        field = global_field(12)
        plan = plan_for(session, (2, 2), 12)
        policies = {
            "none": None,
            "default": ResilienceOptions(),
            "no-restart": ResilienceOptions(max_restarts=0),
        }
        runs = {name: plan.run(field, iterations=4, resilience=policy)
                for name, policy in policies.items()}
        for name, run in runs.items():
            np.testing.assert_array_equal(run.field, runs["none"].field,
                                          err_msg=name)
            assert run.messages == runs["none"].messages, name
            assert run.recovery.checkpoint_restores == 0
            assert isinstance(run.recovery, RecoveryReport)
            assert run.recovery.faults_injected == 0 and run.recovery.ok
        # A checkpoint that can never be restored is not taken.
        assert runs["none"].recovery.checkpoint_saves == 0
        assert runs["no-restart"].recovery.checkpoint_saves == 0
        # One per wave: [0,1) [1,2) [2,3) [3,4).
        assert runs["default"].recovery.checkpoint_saves == 4
        # Nothing went wrong, so the fail-fast report is all zeros.
        zero = RecoveryReport().to_dict()
        assert runs["none"].recovery.to_dict() == zero

    @pytest.mark.parametrize("crash_iteration", [2, 3])
    def test_a_crash_rolls_back_only_its_own_iteration(self, session,
                                                       crash_iteration):
        """Each wave is one iteration: a crash at iteration 2 or 3 rolls back
        to the start of that iteration exactly once, and the retried wave
        reuses the checkpoint taken before it (one save per iteration)."""
        field = global_field(12)
        plan = plan_for(session, (2, 2), 12)
        baseline = plan.run(field, iterations=4)
        crashed = plan.run(field, iterations=4, resilience=ResilienceOptions(
            plan=FaultPlan(rank_crashes=(
                RankCrash(rank=1, iteration=crash_iteration),))))
        np.testing.assert_array_equal(crashed.field, baseline.field)
        assert crashed.recovery.checkpoint_saves == 4
        assert crashed.recovery.checkpoint_restores == 1
        assert crashed.messages >= baseline.messages

    def test_fail_fast_policy_does_not_survive_a_crash(self, session):
        field = global_field(12)
        plan = plan_for(session, (2, 1), 12)
        with pytest.raises(MPIError, match="gave up after 0 restarts"):
            plan.run(field, iterations=2, resilience=ResilienceOptions(
                max_restarts=0,
                plan=FaultPlan(rank_crashes=(RankCrash(rank=0, iteration=1),))))


class TestCombinedAcceptance:
    def test_serialized_plan_with_comm_faults_and_crash_bitwise(self, session):
        """The ISSUE acceptance criterion, replayed from JSON: drops,
        delays, duplicates, corruptions *and* a rank crash, recovered to
        the exact bits of the fault-free run."""
        plan_json = FaultPlan(
            seed=42,
            comm_faults=(CommFault("drop", 3), CommFault("delay", 5),
                         CommFault("duplicate", 7), CommFault("corrupt", 9)),
            rank_crashes=(RankCrash(rank=1, iteration=1),),
        ).to_json()
        fault_plan = FaultPlan.from_json(plan_json)
        field = global_field(12, seed=42)
        plan = plan_for(session, (2, 2), 12)
        baseline = plan.run(field, iterations=3)
        faulted = plan.run(field, iterations=3,
                           resilience=ResilienceOptions(plan=fault_plan))
        np.testing.assert_array_equal(faulted.field, baseline.field)
        recovery = faulted.recovery
        assert recovery.ok
        assert recovery.injected.get("crash") == 1
        assert sum(recovery.injected.get(kind, 0) for kind in
                   ("drop", "delay", "duplicate", "corrupt")) >= 1
        assert faulted.recovery.checkpoint_restores == 1

    def test_replay_is_deterministic(self, session):
        fault_plan = FaultPlan(
            comm_faults=(CommFault("drop", 2), CommFault("corrupt", 4)),
            rank_crashes=(RankCrash(rank=0, iteration=1),))
        field = global_field(12, seed=9)
        plan = plan_for(session, (2, 1), 12)
        first = plan.run(field, iterations=3,
                         resilience=ResilienceOptions(plan=fault_plan))
        second = plan.run(field, iterations=3,
                          resilience=ResilienceOptions(plan=fault_plan))
        np.testing.assert_array_equal(first.field, second.field)
        assert first.recovery.injected == second.recovery.injected

    def test_recovery_traffic_is_not_halo_traffic(self, session):
        """Each rank counts a halo message once, when it sends it: a
        retransmitted, duplicated or delayed copy shows in the recovery
        counters only, so every rank reports the fault-free traffic."""
        fault_plan = FaultPlan(
            comm_faults=(CommFault("drop", 1), CommFault("duplicate", 3),
                         CommFault("corrupt", 5), CommFault("delay", 6)))
        field = global_field(12, seed=3)
        plan = plan_for(session, (2, 2), 12)
        baseline = plan.run(field, iterations=3)
        faulted = plan.run(field, iterations=3,
                           resilience=ResilienceOptions(plan=fault_plan))
        np.testing.assert_array_equal(faulted.field, baseline.field)
        assert faulted.recovery.faults_injected == 4
        assert faulted.recovery.retransmissions >= 1
        assert ([(s.messages, s.bytes) for s in faulted.rank_stats]
                == [(s.messages, s.bytes) for s in baseline.rank_stats])
        assert faulted.messages == baseline.messages > 0
        assert faulted.bytes == baseline.bytes


class TestOptionValidation:
    def test_resilience_options_validated(self):
        with pytest.raises(ResilienceError, match="max_restarts"):
            ResilienceOptions(max_restarts=-1)
        with pytest.raises(ResilienceError, match="plan must be a FaultPlan"):
            ResilienceOptions(plan={"seed": 1})

    def test_run_rejects_non_options_resilience(self, session):
        plan = plan_for(session, (2, 1), 12)
        with pytest.raises(OptionError,
                           match="resilience must be a ResilienceOptions"):
            plan.run(global_field(12), resilience={"max_restarts": 2})

    def test_distribute_takes_no_resilience(self, session):
        """The policy is set per run only: ``distribute`` has no copy."""
        program = session.compile(
            gauss_seidel.generate_source_shaped((14,) * 3, niters=1))
        compiled = program.lower("dmp", grid=(2, 1),
                                 execution_mode="vectorize")
        with pytest.raises(TypeError, match="resilience"):
            compiled.distribute(resilience=ResilienceOptions())
        assert not hasattr(compiled.distribute(), "with_resilience")

    @pytest.mark.parametrize("bad", [0, -1.5, "fast", True])
    def test_distribute_rejects_bad_timeout_naming_backend(self, session,
                                                           bad):
        program = session.compile(
            gauss_seidel.generate_source_shaped((14,) * 3, niters=1))
        compiled = program.lower("dmp", grid=(2, 1),
                                 execution_mode="vectorize")
        with pytest.raises(OptionError, match="'dmp'"):
            compiled.distribute(
                source_builder=gauss_seidel.generate_source_shaped,
                timeout=bad)
