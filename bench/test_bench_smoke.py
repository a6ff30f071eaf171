"""Wiring checks for the benchmark, collected by the tier-1 command.

Every workload runs in-process at ``--smoke`` size (n=12, 3 operations), so
these check names, units, finiteness and the correctness gate — not speed.
"""

import json
import math
import re
import threading
import time

import numpy as np
import pytest

from bench import compare, run, stats, trace
from bench.workloads import WORKLOADS

SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]


def _smoke(name, trace_on, seed=3):
    return run.run_workload(name, seed=seed, seconds=0.0, trace=trace_on,
                            smoke=True)


def test_spec_names_the_workloads_the_benchmark_has():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)
    assert SPEC["paths"] == ["bench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names + WORKLOAD_NAMES)
    assert len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_declared_metric_is_emitted(name):
    for trace_on, declared in ((False, SPEC["end_to_end"]),
                               (True, SPEC["per_layer"])):
        result = _smoke(name, trace_on)
        assert result["failed"] == 0 and result["failed_share"] == 0
        assert result["correct"] and result["attempted"] >= 3
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"]
            if emitted["value"] is None:
                assert result["notes"][metric["name"]]
            else:
                assert math.isfinite(emitted["value"]), metric["name"]
        line = json.loads(run.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())
        if not trace_on:
            assert all(m["value"] > 0 for m in line["metrics"].values())
    # The traced pass left one Chrome-trace file for the workload.
    with open(run.OUT_DIR / f"trace-{name}.json", encoding="utf-8") as handle:
        written = json.load(handle)
    names = {event["name"] for event in written["traceEvents"]}
    assert {"op", "cold_start", "compile", "reload", "Session.lower",
            "Interpreter.call"} <= names
    assert all(event["ph"] == "X" for event in written["traceEvents"])
    assert written["otherData"]["workload"] == name
    assert "interp.stats" in written["otherData"]["counters"]


def test_the_script_keeps_result_and_chrome_trace_apart(capsys):
    assert run.main(["--workload", "gs96_openmp", "--smoke", "--seconds", "0",
                     "--trace", "1"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    with open(run.OUT_DIR / "layers-gs96_openmp.json", encoding="utf-8") as handle:
        assert json.load(handle)["fingerprint"]["nproc"] >= 1
    with open(run.OUT_DIR / "trace-gs96_openmp.json", encoding="utf-8") as handle:
        assert json.load(handle)["traceEvents"]


# -- the correctness gate must fail when it should ----------------------------


def test_one_perturbed_cell_fails_the_run(monkeypatch, capsys):
    cls = WORKLOADS["pw96_cpu"]
    honest = cls.operate

    def perturbed(self, args):
        out = honest(self, args)
        out[0][5, 5, 5] = np.nextafter(out[0][5, 5, 5], np.inf)
        return out

    monkeypatch.setattr(cls, "operate", perturbed)
    code = run.main(["--workload", "pw96_cpu", "--smoke", "--seconds", "0"])
    assert code != 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert line["failed"] > 0 and not line["correct"]


def test_a_raised_exception_fails_the_run(monkeypatch, capsys):
    def raising(self, args):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(WORKLOADS["gs96_openmp"], "operate", raising)
    code = run.main(["--workload", "gs96_openmp", "--smoke", "--seconds", "0"])
    assert code != 0
    out = capsys.readouterr().out
    assert "injected failure" in out
    line = json.loads(out.splitlines()[-1])
    assert line["failed"] > 0 and not line["correct"]


# -- robustness: a tracing target a refactor removed ---------------------------


def test_missing_tracing_target_is_null_with_a_reason():
    broken = tuple(
        (name, "repro.frontend:no_such_function")
        if name == "frontend.compile_to_fir" else (name, spec)
        for name, spec in trace.TARGETS)
    result = run.run_workload("gs96_openmp", seed=3, seconds=0.0, trace=True,
                              smoke=True, targets=broken)
    assert result["metrics"]["frontend.compile_to_fir_ms"]["value"] is None
    assert "unresolved" in result["notes"]["frontend.compile_to_fir_ms"]
    assert result["failed"] == 0
    # Every other layer still reports, and the contract line stays numeric.
    assert result["metrics"]["transforms.discovery_ms"]["value"] > 0
    assert result["metrics"]["interpreter.call_ms_p50"]["value"] > 0
    line = json.loads(run.contract_line(result))
    assert line["metrics"]["frontend.compile_to_fir_ms"]["value"] == run.UNAVAILABLE
    # End-to-end metrics never touch the tracer.
    untraced = _smoke("gs96_openmp", False)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_instrument_restores_what_it_wrapped():
    from repro.api.session import Session
    from repro.frontend import compile_to_fir

    before = Session.lower
    tracer = trace.Tracer("restore")
    with tracer.instrument():
        assert Session.lower is not before
    assert Session.lower is before
    import repro.api.backends as backends
    assert backends.compile_to_fir is compile_to_fir
    assert not tracer.unresolved


# -- helpers --------------------------------------------------------------------


def test_percentile_and_median():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 100) == 4.0
    assert stats.median(samples) == 2.5
    assert stats.percentile(list(range(101)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_tail_picks_the_highest_percentile_with_ten_samples_beyond():
    assert stats.tail(list(range(1000)))[0] == 99
    assert stats.tail(list(range(200)))[0] == 95
    assert stats.tail(list(range(100)))[0] == 90
    assert stats.tail(list(range(50)))[0] == 80
    assert stats.tail(list(range(40)))[0] == 75
    assert stats.tail(list(range(25)))[0] == 60
    percentile, value, count = stats.tail(list(range(24)))
    assert (percentile, value, count) == (50, 11.5, 24)


def test_spread_is_iqr_over_median():
    values = [10.0, 10.0, 10.0, 10.0]
    assert stats.spread(values) == 0.0
    assert stats.spread([1.0]) is None
    assert stats.spread([9.0, 10.0, 11.0, 12.0, 13.0]) == pytest.approx(3 / 11)


def _span(id, parent, name, start, end, thread=1, op="op-0"):
    span = trace.Span(id, parent, name, start, thread, "w", op)
    span.end = end
    return span


def test_self_time_of_nested_spans():
    spans = [_span(1, None, "op", 0.0, 10.0),
             _span(2, 1, "call", 1.0, 9.0),
             _span(3, 2, "kernel", 2.0, 5.0),
             _span(4, 2, "kernel", 5.0, 8.0)]
    own = trace.self_times(spans)
    assert own == {1: 2.0, 2: 2.0, 3: 3.0, 4: 3.0}
    assert trace.coverage(spans, "op") == [0.8]


def test_self_time_counts_parallel_children_once():
    # Two rank threads overlap on [2, 6]; a child sticking out is clipped.
    spans = [_span(1, None, "op", 0.0, 10.0),
             _span(2, 1, "rank", 1.0, 6.0, thread=2),
             _span(3, 1, "rank", 2.0, 8.0, thread=3),
             _span(4, 1, "late", 9.0, 12.0, thread=4)]
    own = trace.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 7.0 - 1.0)
    assert trace.covered([(1, 6), (2, 8), (9, 12)], 0, 10) == pytest.approx(8.0)


def test_spans_on_worker_threads_join_the_operation():
    tracer = trace.Tracer("threads")

    def worker():
        with tracer.span("rank"):
            time.sleep(0.001)
        tracer.record("kernel:x", 0.0005)

    with tracer.operation("op", 7) as root:
        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    ranks = tracer.named("rank")
    assert len(ranks) == 2 and all(s.parent == root.id for s in ranks)
    assert all(s.op == "op-7" for s in tracer.within("op"))
    assert len(tracer.within("op")) == 4
    assert {s.thread for s in ranks} != {root.thread}


def test_compare_verdicts():
    def row(values):
        return dict(stats.summarize(values), values=values)

    quiet_a, quiet_b = row([100.0, 101.0, 100.5]), row([102.0, 102.5, 103.0])
    assert compare.verdict(quiet_a, quiet_b, "lower", 0.05)[0] == "ok"
    assert compare.verdict(quiet_a, row([120.0, 121.0, 119.0]),
                           "lower", 0.05)[0] == "worse"
    noisy = row([80.0, 100.0, 125.0])
    assert compare.verdict(noisy, noisy, "lower", 0.05)[0] == "unresolved"
    assert compare.verdict(noisy, row([60.0, 61.0, 62.0]),
                           "lower", 0.05)[0] == "ok"
    assert compare.verdict(row([10.0, 10.1]), row([8.0, 8.1]),
                           "higher", 0.1)[0] == "worse"
