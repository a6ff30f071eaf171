"""FaultPlan serialization, seeded generation, and injector semantics.

The whole resilience discipline rests on one property: (seed, FaultPlan)
is a complete replay identity.  These tests pin it — a plan survives a
JSON round trip exactly, generation from a seed is deterministic, and the
injector fires each fault exactly once at exactly the scheduled point.
"""

import pytest

from repro.resilience import (
    AllocFault,
    CommFault,
    CompileFault,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    RankCrash,
    RecoveryReport,
)


def full_plan():
    return FaultPlan(
        seed=7,
        comm_faults=(CommFault("drop", 2),
                     CommFault("corrupt", 0, source=1, dest=0, tag=3)),
        rank_crashes=(RankCrash(rank=1, iteration=2),),
        alloc_faults=(AllocFault(index=1, count=2),),
        compile_faults=(CompileFault(index=0),),
    )


class TestFaultPlan:
    def test_json_round_trip_is_exact(self):
        plan = full_plan()
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_empty_and_size(self):
        assert FaultPlan().empty
        assert FaultPlan().size() == 0
        assert not full_plan().empty
        assert full_plan().size() == 5

    def test_generate_is_deterministic(self):
        kwargs = dict(comm_faults=4, ranks=4, crash_iterations=(0, 1),
                      alloc_faults=2, compile_faults=1)
        assert FaultPlan.generate(11, **kwargs) == FaultPlan.generate(11, **kwargs)

    def test_generate_differs_across_seeds(self):
        plans = {FaultPlan.generate(seed, comm_faults=4) for seed in range(8)}
        assert len(plans) > 1

    def test_generated_plan_round_trips(self):
        plan = FaultPlan.generate(3, comm_faults=3, ranks=4,
                                  crash_iterations=(0, 1), alloc_faults=1,
                                  compile_faults=1)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_comm_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="kind must be one of"):
            CommFault("truncate", 0)

    def test_negative_indices_rejected(self):
        with pytest.raises(FaultPlanError, match="match_index"):
            CommFault("drop", -1)
        with pytest.raises(FaultPlanError, match="rank"):
            RankCrash(rank=-1, iteration=0)
        with pytest.raises(FaultPlanError, match="count"):
            AllocFault(index=0, count=0)

    def test_comm_fault_wildcards(self):
        any_fault = CommFault("drop", 0)
        assert any_fault.matches(0, 1, 9)
        pinned = CommFault("drop", 0, source=1, dest=0, tag=3)
        assert pinned.matches(1, 0, 3)
        assert not pinned.matches(0, 1, 3)


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

    def test_alloc_fault_window(self):
        injector = FaultInjector(FaultPlan(
            alloc_faults=(AllocFault(index=1, count=2),)))
        assert [injector.on_device_alloc() for _ in range(4)] == [
            False, True, True, False]

    def test_compile_fault_window(self):
        injector = FaultInjector(FaultPlan(
            compile_faults=(CompileFault(index=0, count=1),)))
        assert injector.on_compile()
        assert not injector.on_compile()

    def test_injections_recorded_on_the_report(self):
        report = RecoveryReport()
        injector = FaultInjector(FaultPlan(
            comm_faults=(CommFault("drop", 0),),
            alloc_faults=(AllocFault(index=0),)), report)
        injector.on_send(0, 1, 0)
        injector.on_device_alloc()
        assert report.injected == {"drop": 1, "alloc": 1}
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
