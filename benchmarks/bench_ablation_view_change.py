"""ABL-VC — view-change cost (§3.3).

Paper: ProBFT's communication complexity is O(n²√n) *only when a view change
occurs* — a new leader ships a deterministic quorum of NewLeader messages,
each possibly carrying a probabilistic-quorum certificate.  The best case
(view 1) is Ω(n√n).

This bench measures the message overhead of a silent-leader view change
versus the good case, and the size of the justification payload.
"""

import pytest

from repro.adversary.behaviors import silent_factory
from repro.config import ProtocolConfig
from repro.harness.tables import render_table
from repro.harness.trial import DeploymentSpec, run_trial
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout


def measure():
    rows = []
    for n in (50, 100):
        cfg = ProtocolConfig(n=n, f=n // 5)
        good = run_trial(
            DeploymentSpec(
                protocol="probft",
                config=cfg,
                latency=ConstantLatency(1.0),
                max_time=1000,
            )
        )
        bad = run_trial(
            DeploymentSpec(
                protocol="probft",
                config=cfg,
                latency=ConstantLatency(1.0),
                timeout_policy=FixedTimeout(20.0),
                byzantine={0: silent_factory()},
                max_time=5000,
            )
        )
        rows.append(
            [
                n,
                good.protocol_messages,
                bad.protocol_messages,
                bad.messages_by_type.get("NewLeader", 0),
                bad.messages_by_type.get("Wish", 0),
                round(bad.last_decision_time, 1),
                bad.max_view,
            ]
        )
    return rows


@pytest.mark.benchmark(group="ablation")
def test_ablation_view_change_cost(benchmark, report):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    text = render_table(
        [
            "n",
            "good-case msgs",
            "view-change msgs",
            "NewLeader msgs",
            "Wish msgs",
            "decision time",
            "decision view",
        ],
        rows,
        title=(
            "ABL-VC: silent-leader view change vs good case\n"
            "paper §3.3: view change adds O(n) NewLeader messages whose "
            "payloads carry certificates (bit complexity O(n^2 sqrt(n)))"
        ),
    )
    report(text)
    for n, good, bad, new_leader, wishes, decision_time, view in rows:
        assert view == 2
        # Every replica but the silent one reports to leader(2); the new
        # leader's own report is delivered locally (not a network send).
        assert new_leader == n - 2
        # A silent leader barely changes the protocol message count (the
        # failed view produced no votes; the NewLeader round roughly
        # replaces one replica's vote multicasts) ...
        assert 0.8 * good < bad < 1.6 * good
        # ... the real cost is synchronizer traffic and latency.
        assert wishes >= n - 1
        assert decision_time > 20.0  # one full view timeout before progress
