"""End-to-end ProBFT integration tests: full deployments on the simulator."""

import pytest

from repro.adversary.behaviors import crash_factory, silent_factory
from repro.config import ProtocolConfig
from repro.core.protocol import ProBFTDeployment
from repro.harness.trial import DeploymentSpec
from repro.net.faults import PreGstChaos
from repro.net.latency import ConstantLatency, UniformLatency
from repro.sync.timeouts import ExponentialTimeout, FixedTimeout


def pre_gst_chaos_deployment(seed, gst=60.0):
    """n=10 with an asynchronous start: large random pre-GST delays."""
    return DeploymentSpec(
        protocol="probft",
        config=ProtocolConfig(n=10, f=2),
        seed=seed,
        latency=UniformLatency(0.5, 1.5, seed=seed),
        gst=gst,
        chaos=PreGstChaos(max_extra=40.0, seed=seed),
        timeout_policy=FixedTimeout(25.0),
    ).build()


class TestHappyPath:
    @pytest.mark.parametrize("n,f", [(4, 1), (10, 3), (20, 3), (40, 8)])
    def test_all_decide_same_value(self, n, f):
        dep = ProBFTDeployment(
            ProtocolConfig(n=n, f=f), latency=ConstantLatency(1.0)
        )
        dep.run(max_time=500)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert dep.decided_values() == {b"value-0"}  # leader of view 1

    def test_three_communication_steps(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=20, f=3), latency=ConstantLatency(1.0)
        )
        dep.run(max_time=500)
        assert max(d.time for d in dep.decisions.values()) == pytest.approx(3.0)

    def test_decision_in_view_1(self):
        dep = ProBFTDeployment(ProtocolConfig(n=20, f=3))
        dep.run(max_time=500)
        assert dep.max_decision_view == 1

    def test_custom_values(self):
        values = {r: b"common" for r in range(10)}
        dep = ProBFTDeployment(ProtocolConfig(n=10, f=2), values=values)
        dep.run(max_time=500)
        assert dep.decided_values() == {b"common"}

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            dep = ProBFTDeployment(
                ProtocolConfig(n=15, f=3),
                seed=42,
                latency=UniformLatency(0.5, 1.5, seed=42),
            )
            dep.run(max_time=500)
            results.append(
                (sorted((r, d.value, d.time) for r, d in dep.decisions.items()),
                 dep.network.stats.sent_total)
            )
        assert results[0] == results[1]

    def test_different_seeds_different_runs(self):
        totals = set()
        for seed in range(3):
            dep = ProBFTDeployment(
                ProtocolConfig(n=15, f=3),
                seed=seed,
                latency=UniformLatency(0.5, 1.5, seed=seed),
            )
            dep.run(max_time=500)
            totals.add(dep.sim.events_processed)
        assert len(totals) > 1


class TestViewChanges:
    def test_silent_leader_forces_view_change(self):
        dep = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=10, f=2),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(20.0),
            byzantine={0: silent_factory()},
        ).build()
        dep.run(max_time=2000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert dep.max_decision_view >= 2
        # View 2's leader (replica 1) proposes its own value.
        assert dep.decided_values() == {b"value-1"}

    def test_two_silent_leaders(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=10, f=2),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(20.0),
            byzantine={0: silent_factory(), 1: silent_factory()},
        )
        dep.run(max_time=2000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert dep.max_decision_view >= 3

    def test_crash_below_threshold_preserves_liveness(self):
        # f=3 crashes from the end of the ID range; the view-1 leader lives.
        dep = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=20, f=3),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(30.0),
            byzantine={r: crash_factory(1.5) for r in range(17, 20)},
        ).build()
        dep.run(max_time=2000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok


class TestPartialSynchrony:
    def test_decides_despite_pre_gst_chaos(self):
        dep = pre_gst_chaos_deployment(seed=3)
        dep.run(max_time=5000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok

    def test_exponential_timeouts_eventually_decide(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=10, f=2),
            latency=UniformLatency(0.5, 8.0, seed=5),
            timeout_policy=ExponentialTimeout(base=2.0, factor=2.0),
        )
        dep.run(max_time=10_000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok

    @pytest.mark.parametrize("seed", range(5))
    def test_chaos_never_violates_agreement(self, seed):
        dep = pre_gst_chaos_deployment(seed=seed, gst=40.0)
        dep.run(max_time=5000)
        assert dep.agreement_ok


class TestMessageComplexity:
    def test_probft_message_counts_match_formula(self):
        cfg = ProtocolConfig(n=100, f=20)
        dep = ProBFTDeployment(cfg, latency=ConstantLatency(1.0))
        dep.run(max_time=500)
        stats = dep.network.stats
        assert stats.sent("Propose") == cfg.n - 1
        # Each replica multicasts to its sample; self-sends stay local.
        expected_upper = cfg.n * cfg.sample_size
        assert 0.9 * expected_upper <= stats.sent("Prepare") <= expected_upper
        assert 0.9 * expected_upper <= stats.sent("Commit") <= expected_upper

    def test_probft_beats_pbft_substantially(self):
        from repro.baselines.pbft.protocol import PbftDeployment

        cfg = ProtocolConfig(n=100, f=20)
        probft = ProBFTDeployment(cfg).run(max_time=500)
        pbft = PbftDeployment(cfg).run(max_time=500)
        assert (
            probft.network.stats.sent_total
            < 0.5 * pbft.network.stats.sent_total
        )


class TestDeploymentValidation:
    def test_too_many_byzantine_rejected(self):
        with pytest.raises(ValueError):
            ProBFTDeployment(
                ProtocolConfig(n=10, f=2),
                byzantine={r: silent_factory() for r in range(3)},
            )

    def test_run_is_idempotent_on_start(self):
        dep = ProBFTDeployment(ProtocolConfig(n=10, f=2))
        dep.start()
        dep.start()
        dep.run(max_time=500)
        assert dep.all_correct_decided()
