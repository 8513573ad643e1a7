"""FIG-1b — number of exchanged messages vs system size.

Paper claims (Figure 1b, §5):

* PBFT grows quadratically (~2n²); HotStuff linearly (~8n); ProBFT as
  O(n·√n), between the two;
* at o = 1.7, ProBFT exchanges ~18-25% of PBFT's messages over the upper
  part of the plotted range (n ∈ [200, 400]).

The analytic series uses the same formulas the paper plots; the measured
series runs the actual protocols and counts real network sends.
"""

import pytest

from repro.analysis import messages as M
from repro.config import ProtocolConfig
from repro.harness.tables import render_series, render_table
from repro.harness.trial import good_case_metrics

ANALYTIC_N = [100, 150, 200, 250, 300, 350, 400]
MEASURED_N = [100, 200]
O_VALUES = (1.6, 1.7, 1.8)


def analytic_series():
    return M.figure1b_series(ANALYTIC_N, o_values=O_VALUES)


def measured_counts():
    rows = []
    for n in MEASURED_N:
        f = n // 5
        cfg = ProtocolConfig(n=n, f=f, o=1.7)
        probft = good_case_metrics("probft", cfg, require_view1=True).protocol_messages
        pbft = good_case_metrics("pbft", cfg, require_view1=True).protocol_messages
        hotstuff = good_case_metrics("hotstuff", cfg, require_view1=True).protocol_messages
        rows.append(
            [
                n,
                pbft,
                M.pbft_messages(n),
                hotstuff,
                M.hotstuff_messages(n),
                probft,
                round(M.probft_expected_network_messages(n, 1.7)),
            ]
        )
    return rows


@pytest.mark.benchmark(group="fig1b")
def test_fig1b_analytic_curves(benchmark, report):
    series = benchmark(analytic_series)
    flat = {name: [v for _n, v in rows] for name, rows in series.items()}
    text = render_series(
        "n",
        ANALYTIC_N,
        flat,
        title="FIG-1b: #exchanged messages (analytic, q=2sqrt(n))",
    )
    ratios = [
        [n] + [round(M.probft_to_pbft_ratio(n, o), 3) for o in O_VALUES]
        for n in ANALYTIC_N
    ]
    text += "\n\n" + render_table(
        ["n"] + [f"ProBFT/PBFT o={o}" for o in O_VALUES],
        ratios,
        title="ProBFT-to-PBFT message ratio (paper: ~18-25% for o=1.7, upper n range)",
    )
    report(text)
    # Shape assertions: ordering and the ratio claim.
    for n in ANALYTIC_N:
        assert (
            M.hotstuff_messages(n)
            < M.probft_messages(n, 1.7)
            < M.pbft_messages(n)
        )
    assert 0.15 < M.probft_to_pbft_ratio(400, 1.7) < 0.25


@pytest.mark.benchmark(group="fig1b")
def test_fig1b_measured_counts(benchmark, report):
    rows = benchmark.pedantic(measured_counts, rounds=1, iterations=1)
    table = render_table(
        [
            "n",
            "PBFT measured",
            "PBFT formula",
            "HS measured",
            "HS formula",
            "ProBFT measured",
            "ProBFT expected",
        ],
        rows,
        title="FIG-1b: measured protocol messages vs analytic formulas (o=1.7)",
    )
    report(table)
    for (_n, pbft_m, pbft_f, hs_m, hs_f, probft_m, probft_e) in rows:
        assert pbft_m == pbft_f
        assert hs_m == hs_f
        assert abs(probft_m - probft_e) / probft_e < 0.05
