"""FIG-1a — message pattern and number of communication steps.

Paper claim (Figure 1a): PBFT and ProBFT decide in the optimal 3
communication steps; HotStuff trades steps for linearity (~8 steps here,
including its NewView round).

We *measure* steps by running each protocol on a unit-latency network: the
latest correct decision time equals the number of communication steps.
"""

import pytest

from repro.analysis import messages as M
from repro.config import ProtocolConfig
from repro.harness.tables import render_table
from repro.harness.trial import good_case_metrics

N_VALUES = [10, 25, 50]


def measure_steps():
    rows = []
    for n in N_VALUES:
        cfg = ProtocolConfig(n=n)
        row = [n]
        for protocol in ("pbft", "probft", "hotstuff"):
            row.append(good_case_metrics(protocol, cfg, require_view1=True).steps)
        rows.append(row)
    return rows


@pytest.mark.benchmark(group="fig1a")
def test_fig1a_communication_steps(benchmark, report):
    rows = benchmark.pedantic(measure_steps, rounds=1, iterations=1)
    expected = [
        "expected", M.PBFT_STEPS, M.PROBFT_STEPS, M.HOTSTUFF_STEPS,
    ]
    table = render_table(
        ["n", "PBFT steps", "ProBFT steps", "HotStuff steps"],
        rows + [expected],
        title=(
            "FIG-1a: good-case communication steps (measured on unit-latency "
            "network)\npaper: PBFT=3, ProBFT=3, HotStuff trades steps for "
            "linear messages"
        ),
    )
    report(table)
    for _n, pbft, probft, hotstuff in rows:
        assert pbft == 3.0
        assert probft == 3.0
        assert hotstuff == 8.0
