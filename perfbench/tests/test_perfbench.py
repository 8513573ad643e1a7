"""Tests of the benchmark itself: tiny runs of every workload, and the
tracer's self-time arithmetic."""

from __future__ import annotations

import json

import pytest

from perfbench import bench, tracer as tracing
from perfbench.workloads import WORKLOADS, tiny

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _state_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "STATE_DIR", tmp_path / "state")


def _declared(kind: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_benchmark_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_tiny_run_emits_every_metric(name, trace):
    run = bench.run_benchmark(tiny(WORKLOADS[name]), run_seed=7, seconds=1, trace=trace)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], run["report"]["problems"]
    assert result["attempted"] >= 1
    declared = _declared("per_layer" if trace else "end_to_end")
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == declared
    json.dumps(result, allow_nan=False)


def test_same_seed_same_fingerprints_and_disjoint_warmups():
    workload = tiny(WORKLOADS["consensus-faults"])
    trials = bench.plan(workload, 3, 3)
    first = bench.run_pass(workload, trials)
    second = bench.run_pass(workload, trials)
    assert [o.fingerprint() for o in first] == [o.fingerprint() for o in second]
    assert bench.check_fingerprints(workload.name, first) == []
    assert bench.check_fingerprints(workload.name, second) == []
    warmups = {bench.warmup_seed(workload.name, rep) for rep in range(3)}
    assert warmups.isdisjoint(seed for _, seed in trials)


def test_changed_output_is_flagged():
    workload = tiny(WORKLOADS["consensus-happy"])
    [outcome] = bench.run_pass(workload, bench.plan(workload, 1, 1))
    assert bench.check_fingerprints(workload.name, [outcome]) == []
    outcome.protocol_msgs += 1
    assert bench.check_fingerprints(workload.name, [outcome]) == [
        f"{outcome.cell}:{outcome.seed}"
    ]


def test_self_time_subtracts_nested_spans():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])
    tracer.enter("outer")  # t=0
    now[0] = 1.0
    tracer.enter("middle")  # t=1
    now[0] = 2.0
    tracer.enter("inner")  # t=2
    now[0] = 5.0
    tracer.exit()  # inner: 3
    now[0] = 6.0
    tracer.exit()  # middle: 5, self 2
    tracer.enter("middle")  # t=6, a second call
    now[0] = 7.0
    tracer.exit()  # middle: 1, self 1
    now[0] = 10.0
    tracer.exit()  # outer: 10, self 10 - 5 - 1 = 4
    assert tracer.total_s("inner") == tracer.self_s("inner") == 3.0
    assert (tracer.calls("middle"), tracer.total_s("middle")) == (2, 6.0)
    assert tracer.self_s("middle") == 3.0
    assert (tracer.total_s("outer"), tracer.self_s("outer")) == (10.0, 4.0)
    assert tracer.edges == {
        ("<root>", "outer"): 1,
        ("outer", "middle"): 2,
        ("middle", "inner"): 1,
    }


def test_install_restores_every_patched_attribute():
    from repro.core import predicates
    from repro.crypto.context import CryptoContext
    from repro.net.network import Network

    before = (
        predicates.__dict__["validate_prepared_certificate"],
        Network.__dict__["send"],
        CryptoContext.__dict__["pooled"],
    )
    with tracing.install(tracing.Tracer()):
        assert Network.__dict__["send"] is not before[1]
    after = (
        predicates.__dict__["validate_prepared_certificate"],
        Network.__dict__["send"],
        CryptoContext.__dict__["pooled"],
    )
    assert after == before
