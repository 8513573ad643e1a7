"""E2E — end-to-end protocol comparison under realistic latency.

Supplementary to Figure 1: runs all three protocols on a jittery network
(uniform latency) and compares decision latency, message counts, and
simulation effort, plus ProBFT SMR throughput over multiple slots.
"""

import pytest

from repro.config import ProtocolConfig
from repro.harness.tables import render_table
from repro.harness.trial import DeploymentSpec, run_trial
from repro.net.latency import UniformLatency
from repro.smr.app import CounterApp
from repro.smr.service import SMRDeployment

N_VALUES = [40, 100]


def run_matrix():
    rows = []
    for n in N_VALUES:
        cfg = ProtocolConfig(n=n, f=n // 5)
        for name in ("pbft", "probft", "hotstuff"):
            result = run_trial(
                DeploymentSpec(
                    protocol=name,
                    config=cfg,
                    latency=UniformLatency(0.5, 1.5, seed=n),
                    max_time=2000,
                )
            )
            rows.append(
                [
                    n,
                    name,
                    round(result.last_decision_time, 2),
                    result.protocol_messages,
                    result.agreement_ok,
                ]
            )
    return rows


@pytest.mark.benchmark(group="e2e")
def test_e2e_latency_and_messages(benchmark, report):
    rows = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    text = render_table(
        ["n", "protocol", "decision latency", "messages", "agreement"],
        rows,
        title="E2E: jittery network (uniform 0.5-1.5) single-shot comparison",
    )
    report(text)
    by_key = {(r[0], r[1]): r for r in rows}
    for n in N_VALUES:
        assert all(by_key[(n, p)][4] for p in ("pbft", "probft", "hotstuff"))
        # ProBFT latency ~ PBFT latency, both well under HotStuff's.
        assert by_key[(n, "probft")][2] < by_key[(n, "hotstuff")][2]
        # ProBFT messages well under PBFT's.
        assert by_key[(n, "probft")][3] < 0.6 * by_key[(n, "pbft")][3]


@pytest.mark.benchmark(group="e2e")
def test_e2e_smr_throughput(benchmark, report):
    """The future-work SMR construction: slots decided per unit time."""

    def run():
        cfg = ProtocolConfig(n=20, f=4)
        dep = SMRDeployment(cfg, CounterApp, num_slots=10, seed=7)
        for i in range(8):
            dep.submit_to_all(b"ADD:%d" % i)
        dep.run(max_time=50_000)
        return dep

    dep = benchmark.pedantic(run, rounds=1, iterations=1)
    slots_per_time = dep.num_slots / dep.sim.now
    text = render_table(
        ["slots", "sim time", "slots/time", "consistent"],
        [[dep.num_slots, dep.sim.now, round(slots_per_time, 3),
          dep.logs_consistent() and dep.snapshots_consistent()]],
        title="E2E: ProBFT-SMR multi-slot run (n=20, unit latency)",
    )
    report(text)
    assert dep.all_applied()
    assert dep.logs_consistent()
    # 3 steps per slot at unit latency -> ~1/3 slot per time unit.
    assert slots_per_time > 0.2
