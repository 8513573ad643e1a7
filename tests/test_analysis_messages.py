"""Tests for message/step count formulas (Figure 1, §3.3) — checked against
the actual simulator where applicable."""

import pytest

from repro.analysis import messages as M
from repro.config import ProtocolConfig
from repro.harness.trial import good_case_metrics


class TestFormulas:
    def test_pbft_messages(self):
        assert M.pbft_messages(100) == 99 + 2 * 100 * 99

    def test_hotstuff_messages(self):
        assert M.hotstuff_messages(100) == 8 * 99

    def test_probft_messages_integer(self):
        # n=100, l=2, o=1.7: q=20, s=34 -> 99 + 2*100*34.
        assert M.probft_messages(100, 1.7) == 99 + 6800

    def test_probft_messages_continuous(self):
        value = M.probft_messages(100, 1.7, continuous=True)
        assert value == pytest.approx(99 + 2 * 100 * 1.7 * 2 * 10.0)

    def test_probft_expected_network_messages_below_simple(self):
        assert M.probft_expected_network_messages(100, 1.7) < M.probft_messages(
            100, 1.7
        )

    def test_steps_constants(self):
        assert M.PBFT_STEPS == 3
        assert M.PROBFT_STEPS == 3
        assert M.HOTSTUFF_STEPS == 8


class TestPaperClaims:
    def test_probft_fraction_of_pbft_shrinks_with_n(self):
        ratios = [M.probft_to_pbft_ratio(n, 1.7) for n in (100, 200, 300, 400)]
        assert ratios == sorted(ratios, reverse=True)

    def test_paper_18_25_percent_claim_at_large_n(self):
        """§5: ProBFT with o=1.7 uses ~18-25% of PBFT's messages (upper
        range of Figure 1b; at n=100 the ratio is ~35%)."""
        assert 0.15 < M.probft_to_pbft_ratio(400, 1.7) < 0.25
        assert 0.18 < M.probft_to_pbft_ratio(250, 1.7) < 0.28

    def test_probft_always_between_hotstuff_and_pbft(self):
        for n in (100, 200, 400):
            assert (
                M.hotstuff_messages(n)
                < M.probft_messages(n, 1.7)
                < M.pbft_messages(n)
            )

    def test_figure1b_series_structure(self):
        series = M.figure1b_series([100, 200], o_values=(1.6, 1.8))
        assert set(series) == {"PBFT", "HotStuff", "ProBFT o=1.6", "ProBFT o=1.8"}
        for rows in series.values():
            assert [n for n, _v in rows] == [100, 200]

    def test_complexity_table_rows(self):
        table = M.complexity_table()
        protos = {row.protocol for row in table}
        assert protos == {"PBFT", "HotStuff", "ProBFT"}
        probft = next(r for r in table if r.protocol == "ProBFT")
        assert probft.steps == 3
        assert "sqrt" in probft.message_complexity


class TestFormulasMatchSimulation:
    """The strongest check: measured counts equal the formulas."""

    def test_pbft_measured(self):
        result = good_case_metrics("pbft", ProtocolConfig(n=20, f=3))
        assert result.protocol_messages == M.pbft_messages(20)
        assert result.steps == pytest.approx(M.PBFT_STEPS)

    def test_hotstuff_measured(self):
        result = good_case_metrics("hotstuff", ProtocolConfig(n=20, f=3))
        assert result.protocol_messages == M.hotstuff_messages(20)
        assert result.steps == pytest.approx(M.HOTSTUFF_STEPS)

    def test_probft_measured_close_to_formula(self):
        cfg = ProtocolConfig(n=50, f=10)
        result = good_case_metrics("probft", cfg)
        formula = M.probft_messages(50, cfg.o, cfg.l)
        expected = M.probft_expected_network_messages(50, cfg.o, cfg.l)
        assert result.protocol_messages <= formula
        # Within a few expected-self-send deviations of the expectation.
        assert abs(result.protocol_messages - expected) < 0.05 * formula
        assert result.steps == pytest.approx(M.PROBFT_STEPS)
