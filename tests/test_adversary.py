"""Tests for the Byzantine adversary framework."""

import pytest

from repro.adversary.behaviors import CrashReplica, crash_factory, silent_factory
from repro.adversary.equivocation import (
    general_split,
    optimal_split,
    suboptimal_split,
)
from repro.adversary.flooding import flooding_factory
from repro.adversary.plans import equivocation_attack_deployment
from repro.config import ProtocolConfig
from repro.core.protocol import ProBFTDeployment
from repro.harness.trial import DeploymentSpec
from repro.net.latency import ConstantLatency
from repro.sync.timeouts import FixedTimeout


def flooding_deployment():
    """n=10 with one flooder at the top of the ID range (replica 9)."""
    return DeploymentSpec(
        protocol="probft",
        config=ProtocolConfig(n=10, f=2),
        latency=ConstantLatency(1.0),
        timeout_policy=FixedTimeout(30.0),
        byzantine={9: flooding_factory()},
    ).build()


class TestSplitStrategies:
    def test_optimal_split_shape(self):
        byz = [0, 8, 9]
        plan = optimal_split(10, byz, b"a", b"b")
        (v1, g1), (v2, g2) = plan.assignments
        assert v1 == b"a" and v2 == b"b"
        # Byzantine replicas are in both groups.
        for b in byz:
            assert b in g1 and b in g2
        # Correct replicas split disjointly and evenly-ish.
        correct1 = g1 - set(byz)
        correct2 = g2 - set(byz)
        assert not correct1 & correct2
        assert len(correct1 | correct2) == 7
        assert abs(len(correct1) - len(correct2)) <= 1

    def test_suboptimal_split_covers_everyone(self):
        plan = suboptimal_split(10, b"a", b"b")
        (v1, g1), (v2, g2) = plan.assignments
        assert g1 | g2 == set(range(10))
        assert not g1 & g2

    def test_general_split_properties(self):
        plan = general_split(20, [b"a", b"b", b"c"], seed=1)
        assert len(plan.assignments) == 3
        all_members = set()
        for _v, members in plan.assignments:
            all_members |= members
        assert len(all_members) <= 20  # some replicas may be omitted

    def test_general_split_needs_two_values(self):
        with pytest.raises(ValueError):
            general_split(10, [b"only"])

    def test_group_of(self):
        plan = optimal_split(10, [0], b"a", b"b")
        assert plan.group_of(0) in (b"a", b"b")
        assert plan.group_of(1) is not None


class TestSilentAndCrash:
    def test_silent_replica_sends_nothing(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=10, f=2),
            byzantine={5: silent_factory()},
            timeout_policy=FixedTimeout(30.0),
        )
        dep.run(max_time=1000)
        assert dep.network.stats.sent_by_replica[5] == 0
        assert dep.all_correct_decided()

    def test_crash_replica_stops_at_crash_time(self):
        dep = ProBFTDeployment(
            ProtocolConfig(n=10, f=2),
            latency=ConstantLatency(1.0),
            byzantine={9: crash_factory(crash_time=1.5)},
            timeout_policy=FixedTimeout(30.0),
        )
        dep.run(max_time=1000, stop_when_decided=False)
        replica: CrashReplica = dep.replicas[9]
        assert replica.crashed

    def test_f_crashes_tolerated(self):
        # f=4 crashes from the end of the ID range; the view-1 leader lives.
        dep = DeploymentSpec(
            protocol="probft",
            config=ProtocolConfig(n=13, f=4),
            latency=ConstantLatency(1.0),
            timeout_policy=FixedTimeout(30.0),
            byzantine={r: crash_factory(1.5) for r in range(9, 13)},
        ).build()
        dep.run(max_time=2000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok


class TestEquivocationAttack:
    def test_attack_never_violates_agreement(self):
        """The headline safety property, hammered across seeds."""
        for seed in range(10):
            dep, _plan = equivocation_attack_deployment(
                ProtocolConfig(n=20, f=4),
                seed=seed,
                timeout_policy=FixedTimeout(20.0),
            )
            dep.run(max_time=5000)
            assert dep.agreement_ok, f"violation at seed {seed}"
            assert dep.all_correct_decided()

    def test_attack_sends_two_proposals(self):
        dep, plan = equivocation_attack_deployment(
            ProtocolConfig(n=12, f=2), timeout_policy=FixedTimeout(20.0)
        )
        dep.run(max_time=30)
        assert len(plan.values) == 2
        # The equivocating leader sent Propose messages.
        assert dep.network.stats.sent_by_replica[0] > 0

    def test_some_replicas_block_the_view(self):
        """Cross-group votes expose the equivocation to someone."""
        blocked_any = False
        for seed in range(5):
            dep, _ = equivocation_attack_deployment(
                ProtocolConfig(n=20, f=4),
                seed=seed,
                timeout_policy=FixedTimeout(1000.0),
            )
            dep.run(max_time=20, stop_when_decided=False)
            blocked = [
                r
                for r, rep in dep.correct_replicas().items()
                if rep.view_blocked
            ]
            blocked_any = blocked_any or bool(blocked)
        assert blocked_any

    def test_decisions_follow_split_values(self):
        dep, plan = equivocation_attack_deployment(
            ProtocolConfig(n=20, f=4), timeout_policy=FixedTimeout(20.0)
        )
        dep.run(max_time=5000)
        decided = dep.decided_values()
        # Whatever was decided must be one of the attack values (a correct
        # view-2 leader re-proposes a prepared attack value) or a fresh
        # correct-leader value if nothing was prepared.
        assert len(decided) <= 1

    def test_needs_at_least_one_byzantine(self):
        with pytest.raises(ValueError):
            equivocation_attack_deployment(
                ProtocolConfig(n=10, f=2), n_byzantine=0
            )


class TestFlooding:
    def test_flooding_does_not_corrupt_consensus(self):
        dep = flooding_deployment()
        dep.run(max_time=1000)
        assert dep.all_correct_decided()
        assert dep.agreement_ok
        assert dep.decided_values() == {b"value-0"}

    def test_flood_messages_are_rejected_not_counted(self):
        """Forged votes never contribute to quorums: decisions still need
        the normal number of steps, and no replica prepares the fake value."""
        dep = flooding_deployment()
        dep.run(max_time=1000)
        for r, rep in dep.correct_replicas().items():
            assert rep.prepared_value != b"flood-value"

    def test_flooder_actually_floods(self):
        dep = flooding_deployment()
        dep.run(max_time=1000)
        flooder = max(dep.byzantine_ids)
        assert dep.network.stats.sent_by_replica[flooder] > 50


class TestEquivocationApiGuards:
    def test_later_view_attack_rejected(self):
        from repro.adversary.equivocation import EquivocatingLeader

        plan = optimal_split(10, [0], b"a", b"b")
        with pytest.raises(ValueError):
            EquivocatingLeader(
                0, ProtocolConfig(n=10, f=2), None, None, plan, attack_view=2
            )
