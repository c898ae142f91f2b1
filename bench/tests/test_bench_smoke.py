"""A tiny run of every workload passes the expected-output and invariant
checks and reports exactly the metrics BENCHMARK.json names."""

import json

import pytest

import run
import workloads


def declared(kind):
    with open(workloads.ROOT / "BENCHMARK.json") as f:
        return [m["name"] for m in json.load(f)[kind]]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_untraced_smoke_run(name, monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    result = run.run(name, 0, 0, False, limit=3, setup_starts=1,
                     min_queries=1)
    assert result["correct"], result["extra"]["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == 3 * run.MIN_PASSES
    assert sorted(result["metrics"]) == sorted(declared("end_to_end"))
    assert all(v > 0 for v in result["metrics"].values())
    line = json.loads(run.result_line(result, False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_smoke_run(name, monkeypatch):
    monkeypatch.chdir(workloads.ROOT)
    result = run.run(name, 0, 0, True, limit=2)
    assert result["correct"], result["extra"]
    assert result["extra"]["counts_repeat"]
    assert result["extra"]["outputs_identical_to_untraced"]
    assert sorted(result["metrics"]) == sorted(declared("per_layer"))


def test_invariants_catch_a_wrong_exit_code():
    report = {"realises": {"kind": "in"}}
    assert run.invariant_problems(["validate"], 2, report)
    assert run.invariant_problems(["validate"], 0, report) == []
    out = {"realises": {"kind": "out"}}
    assert run.invariant_problems(["validate"], 1, out)
    ram = {"equivalence": [{"verdict": "agree"}],
           "properties": [{"verdict": "unknown"}]}
    assert run.invariant_problems(["ram"], 2, ram) == []
    assert run.invariant_problems(["ram"], 0, ram)


def test_timings_scale_with_speed_and_ignore_one_slow_pass():
    class P:
        def __init__(self, latencies):
            self.latencies = latencies

    passes = [P([0.01 * (i + 1) for i in range(20)]) for _ in range(3)]
    plain = run.timing_metrics([0.2, 0.3, 0.1], passes, 1.0)
    halved = run.timing_metrics([0.2, 0.3, 0.1], passes, 0.5)
    for name in ("setup_s", "query_p50_ms", "query_p90_ms"):
        assert halved[name] == pytest.approx(plain[name] / 2)
    assert halved["queries_per_s"] == pytest.approx(2 * plain["queries_per_s"])
    slow = passes[:2] + [P([3 * t for t in passes[2].latencies])]
    assert run.timing_metrics([0.2, 0.3, 0.1], slow, 1.0) == plain
