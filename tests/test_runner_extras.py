"""Additional trial-runner coverage: retries, result fields, determinism."""

import math

import pytest

from repro.config import ProtocolConfig
from repro.harness.trial import (
    DeploymentSpec,
    RunResult,
    good_case_metrics,
    run_trial,
)

PROTOCOLS = ("probft", "pbft", "hotstuff")


def run(protocol: str, cfg: ProtocolConfig, seed: int) -> RunResult:
    return run_trial(
        DeploymentSpec(protocol=protocol, config=cfg, seed=seed, max_time=500)
    )


class TestRequireView1:
    def test_retry_finds_view1_run(self):
        """At n=64 some seeds need a view change; retrying must find a
        view-1 run and report it."""
        cfg = ProtocolConfig(n=64, f=12)
        result = good_case_metrics("probft", cfg, require_view1=True)
        assert result.max_view == 1
        assert result.all_decided

    def test_retry_returns_first_view1_seed(self):
        """Seed 7 needs a view change at n=64 and seed 8 does not: the retry
        from seed 7 returns exactly seed 8's run."""
        cfg = ProtocolConfig(n=64, f=12)
        assert good_case_metrics("probft", cfg, seed=7).max_view > 1
        retried = good_case_metrics("probft", cfg, seed=7, require_view1=True)
        assert retried == good_case_metrics("probft", cfg, seed=8)
        assert retried.max_view == 1

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_view1_run_is_not_retried(self, protocol):
        cfg = ProtocolConfig(n=10, f=2)
        plain = good_case_metrics(protocol, cfg, seed=3)
        assert plain.all_decided and plain.max_view == 1
        assert good_case_metrics(protocol, cfg, seed=3, require_view1=True) == plain

    def test_exhausted_retries_raise(self):
        cfg = ProtocolConfig(n=64, f=12)
        with pytest.raises(RuntimeError):
            good_case_metrics(
                "probft", cfg, require_view1=True, max_retries=0
            )


class TestRunResult:
    def test_steps_nan_when_nothing_decided(self):
        result = RunResult(
            protocol="probft",
            n=4,
            f=1,
            decided=0,
            n_correct=4,
            all_decided=False,
            agreement_ok=True,
            decided_values=(),
            decision_views=(),
            max_view=0,
            sim_time=1.0,
            last_decision_time=float("nan"),
        )
        assert math.isnan(result.steps)
        assert result.protocol_messages == 0

    def test_protocol_messages_subtracts_all_sync_types(self):
        result = RunResult(
            protocol="probft",
            n=4,
            f=1,
            decided=4,
            n_correct=4,
            all_decided=True,
            agreement_ok=True,
            decided_values=(b"v",),
            decision_views=(1,),
            max_view=1,
            sim_time=3.0,
            last_decision_time=3.0,
            messages_by_type={"Propose": 3, "Wish": 7},
            total_messages=10,
        )
        assert result.protocol_messages == 3


class TestCrossProtocolDeterminism:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_same_seed_same_result(self, protocol):
        cfg = ProtocolConfig(n=10, f=2)
        a = run(protocol, cfg, seed=13)
        b = run(protocol, cfg, seed=13)
        assert a.total_messages == b.total_messages
        assert a.last_decision_time == b.last_decision_time
        assert a.decided_values == b.decided_values

    def test_distinct_protocols_distinct_footprints(self):
        # n must be large enough that ProBFT's sample does not saturate to n
        # (at n=10, s = min(n, ceil(o*q)) = 10 and ProBFT degenerates to
        # PBFT's all-to-all pattern — itself a nice sanity fact).
        cfg = ProtocolConfig(n=20, f=3)
        totals = {run(protocol, cfg, seed=1).protocol_messages for protocol in PROTOCOLS}
        assert len(totals) == 3
