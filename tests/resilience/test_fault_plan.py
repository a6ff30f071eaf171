"""FaultPlan construction, seeded generation, and injector semantics.

The whole resilience discipline rests on one property: a seed is a complete
replay identity.  These tests pin it — generation from a seed is
deterministic, every fault field is a typed, checked value, and the
injector fires each fault exactly once at exactly the scheduled point.
"""

import pytest

from repro.resilience import (
    CommFault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    RankCrash,
    RecoveryReport,
    ResilienceError,
    ResilienceOptions,
)


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        assert FaultPlan.generate(11, 4) == FaultPlan.generate(11, 4)

    def test_generate_differs_across_seeds(self):
        plans = {FaultPlan.generate(seed, comm_faults=4) for seed in range(8)}
        assert len(plans) > 1

    def test_generate_draws_message_faults_only(self):
        plan = FaultPlan.generate(3, comm_faults=3)
        assert plan.seed == 3
        assert len(plan.comm_faults) == 3
        assert plan.rank_crashes == ()

    def test_unknown_comm_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="kind must be one of"):
            CommFault("truncate", 0)

    def test_negative_indices_rejected(self):
        with pytest.raises(FaultPlanError, match="match_index"):
            CommFault("drop", -1)
        with pytest.raises(FaultPlanError, match="rank"):
            RankCrash(rank=-1, iteration=0)
        with pytest.raises(FaultPlanError, match="source"):
            CommFault("drop", 0, source=-2)

    def test_comm_fault_wildcards(self):
        any_fault = CommFault("drop", 0)
        assert any_fault.matches(0, 1, 9)
        pinned = CommFault("drop", 0, source=1, dest=0, tag=3)
        assert pinned.matches(1, 0, 3)
        assert not pinned.matches(0, 1, 3)


@pytest.mark.parametrize("build, error, field", [
    (lambda: ResilienceOptions(max_restarts=True), ResilienceError,
     "max_restarts"),
    (lambda: ResilienceOptions(max_restarts=2.5), ResilienceError,
     "max_restarts"),
    (lambda: ResilienceOptions(max_restarts="3"), ResilienceError,
     "max_restarts"),
    (lambda: RankCrash(True, 1), FaultPlanError, "rank"),
    (lambda: RankCrash(0, 1.5), FaultPlanError, "iteration"),
    (lambda: RankCrash("a", 1), FaultPlanError, "rank"),
    (lambda: CommFault("drop", True), FaultPlanError, "match_index"),
    (lambda: CommFault("drop", 0, tag="3"), FaultPlanError, "tag"),
], ids=["restarts-bool", "restarts-float", "restarts-str", "rank-bool",
        "iteration-float", "rank-str", "match-index-bool", "tag-str"])
def test_non_integer_fields_are_rejected_by_name(build, error, field):
    with pytest.raises(error, match=f"^{field} must be an int"):
        build()


class TestFaultInjector:
    def test_comm_fault_fires_once_at_match_index(self):
        injector = FaultInjector(FaultPlan(comm_faults=(CommFault("drop", 2),)))
        # Sends 0 and 1 pass clean; send 2 is dropped; all later sends clean.
        assert [injector.on_send(0, 1, 0) for _ in range(5)] == [
            None, None, "drop", None, None]

    def test_comm_fault_filter_only_counts_matching_traffic(self):
        injector = FaultInjector(FaultPlan(
            comm_faults=(CommFault("corrupt", 1, source=1),)))
        assert injector.on_send(0, 1, 0) is None  # wrong source: not counted
        assert injector.on_send(1, 0, 0) is None  # match 0
        assert injector.on_send(1, 0, 0) == "corrupt"  # match 1: fires

    def test_rank_crash_fires_once(self):
        injector = FaultInjector(FaultPlan(
            rank_crashes=(RankCrash(rank=1, iteration=2),)))
        assert not injector.should_crash(1, 0)
        assert not injector.should_crash(0, 2)
        assert injector.should_crash(1, 2)
        assert not injector.should_crash(1, 2)  # respawned rank survives

    def test_injections_recorded_on_the_report(self):
        report = RecoveryReport()
        injector = FaultInjector(FaultPlan(
            comm_faults=(CommFault("drop", 0),),
            rank_crashes=(RankCrash(rank=0, iteration=0),)), report)
        injector.on_send(0, 1, 0)
        injector.should_crash(0, 0)
        assert report.injected == {"drop": 1, "crash": 1}
        assert report.faults_injected == 2


class TestRecoveryReport:
    def test_merge_and_counters(self):
        a = RecoveryReport()
        a.record_injected("drop")
        a.add_counters({"receive_retries": 2, "not_a_counter": 99})
        b = RecoveryReport()
        b.record_injected("drop")
        b.record_injected("crash")
        b.unrecovered = 1
        a.merge(b)
        assert a.injected == {"drop": 2, "crash": 1}
        assert a.receive_retries == 2
        assert not a.ok
        assert a.faults_injected == 3
        assert a.to_dict()["unrecovered"] == 1

    def test_to_dict_has_every_counter(self):
        data = RecoveryReport().to_dict()
        assert data["injected"] == {}
        for name in RecoveryReport._COUNTER_FIELDS:
            assert data[name] == 0
