"""Tests for timeout policies and the view synchronizer."""

import pytest

from repro.crypto.context import CryptoContext
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.net.simulator import Simulator
from repro.net.transport import Transport
from repro.sync.synchronizer import ViewSynchronizer, Wish
from repro.sync.timeouts import ExponentialTimeout, FixedTimeout, LinearTimeout


class TestTimeoutPolicies:
    def test_fixed(self):
        assert FixedTimeout(5.0).timeout_for(1) == 5.0
        assert FixedTimeout(5.0).timeout_for(99) == 5.0
        with pytest.raises(ValueError):
            FixedTimeout(0.0)

    def test_linear(self):
        policy = LinearTimeout(base=10.0, increment=5.0)
        assert policy.timeout_for(1) == 10.0
        assert policy.timeout_for(3) == 20.0
        with pytest.raises(ValueError):
            LinearTimeout(base=0.0)

    def test_exponential(self):
        policy = ExponentialTimeout(base=2.0, factor=2.0, cap=10.0)
        assert policy.timeout_for(1) == 2.0
        assert policy.timeout_for(2) == 4.0
        assert policy.timeout_for(10) == 10.0  # capped
        with pytest.raises(ValueError):
            ExponentialTimeout(base=1.0, factor=0.5)

    def test_timeouts_grow(self):
        policy = ExponentialTimeout(base=1.0, factor=2.0)
        values = [policy.timeout_for(v) for v in range(1, 10)]
        assert values == sorted(values)


class SyncCluster:
    """n synchronizers wired over a simulated network (no protocol on top)."""

    def __init__(self, n=4, f=1, timeout=FixedTimeout(10.0)):
        self.sim = Simulator()
        self.network = Network(self.sim, n, latency=ConstantLatency(1.0))
        self.crypto = CryptoContext.create(n)
        self.views = {r: [] for r in range(n)}
        self.syncs = {}
        for r in range(n):
            transport = Transport(self.network, r)
            sync = ViewSynchronizer(
                transport=transport,
                f=f,
                signatures=self.crypto.signatures,
                on_new_view=lambda v, r=r: self.views[r].append(v),
                timeout_policy=timeout,
            )
            self.syncs[r] = sync
            self.network.register(
                r, lambda src, msg, s=sync: s.on_wish(src, msg)
            )

    def start(self, replicas=None):
        for r, sync in self.syncs.items():
            if replicas is None or r in replicas:
                sync.start()


class TestViewSynchronizer:
    def test_start_enters_view_1(self):
        cluster = SyncCluster()
        cluster.start()
        assert all(v == [1] for v in cluster.views.values())

    def test_timeout_advances_all_to_view_2(self):
        cluster = SyncCluster()
        cluster.start()
        cluster.sim.run(until=30.0)
        for r in range(4):
            assert cluster.views[r][-1] >= 2
            assert cluster.syncs[r].current_view >= 2

    def test_views_advance_roughly_together(self):
        cluster = SyncCluster(n=7, f=2)
        cluster.start()
        cluster.sim.run(until=100.0)
        finals = {cluster.syncs[r].current_view for r in range(7)}
        assert max(finals) - min(finals) <= 1

    def test_f_plus_1_wishes_trigger_relay(self):
        """A replica that never timed out joins when f+1 wishes arrive."""
        cluster = SyncCluster(n=4, f=1, timeout=FixedTimeout(1000.0))
        cluster.start()
        # Inject wishes for view 2 from replicas 1 and 2 (f+1 = 2 of them).
        for signer in (1, 2):
            wish = cluster.crypto.signatures.sign(signer, Wish(view=2))
            cluster.network.broadcast(signer, wish)
        cluster.sim.run(until=50.0)
        # Replica 0 relayed and, counting its own wish, 2f+1=3 are reached.
        assert cluster.syncs[0].current_view == 2

    def test_fewer_than_f_plus_1_wishes_ignored(self):
        cluster = SyncCluster(n=4, f=1, timeout=FixedTimeout(1000.0))
        cluster.start()
        wish = cluster.crypto.signatures.sign(1, Wish(view=2))
        cluster.network.broadcast(1, wish)
        cluster.sim.run(until=50.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_invalid_wish_signature_ignored(self):
        from dataclasses import replace

        cluster = SyncCluster(n=4, f=1, timeout=FixedTimeout(1000.0))
        cluster.start()
        for signer in (1, 2):
            wish = cluster.crypto.signatures.sign(signer, Wish(view=5))
            forged = replace(wish, payload=Wish(view=9))
            cluster.network.broadcast(signer, forged)
        cluster.sim.run(until=50.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_wish_from_wrong_domain_ignored(self):
        cluster = SyncCluster(n=4, f=1, timeout=FixedTimeout(1000.0))
        cluster.start()
        for signer in (1, 2):
            wish = cluster.crypto.signatures.sign(
                signer, Wish(view=2, domain="slot-3")
            )
            cluster.network.broadcast(signer, wish)
        cluster.sim.run(until=50.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_view_skipping(self):
        """2f+1 wishes for a far-ahead view jump straight to it."""
        cluster = SyncCluster(n=4, f=1, timeout=FixedTimeout(1000.0))
        cluster.start()
        for signer in (1, 2, 3):
            wish = cluster.crypto.signatures.sign(signer, Wish(view=7))
            cluster.network.broadcast(signer, wish)
        cluster.sim.run(until=50.0)
        assert cluster.syncs[0].current_view == 7

    def test_stop_cancels_timers(self):
        cluster = SyncCluster()
        cluster.start()
        for sync in cluster.syncs.values():
            sync.stop()
        cluster.sim.run(until=100.0)
        assert all(s.current_view == 1 for s in cluster.syncs.values())

    def test_sender_spoofing_ignored(self):
        """A wish whose signer differs from the transport src is dropped."""
        cluster = SyncCluster(n=4, f=1, timeout=FixedTimeout(1000.0))
        cluster.start()
        wish1 = cluster.crypto.signatures.sign(1, Wish(view=2))
        # Replica 3 relays replica 1's wish claiming it as its own source.
        cluster.network.send(3, 0, wish1)
        wish3 = cluster.crypto.signatures.sign(3, Wish(view=2))
        cluster.network.send(3, 0, wish3)
        cluster.sim.run(until=50.0)
        # Only one distinct wisher counted at replica 0 -> no relay to view 2.
        assert cluster.syncs[0].current_view == 1


class TestWishHistogram:
    def test_kth_highest_matches_sorted_reference(self):
        """The per-view histogram answers exactly what sorting every
        replica's highest wish answers, through relays and view entries."""
        import random

        n, f = 10, 3
        cluster = SyncCluster(n=n, f=f, timeout=FixedTimeout(1000.0))
        cluster.start()
        sync = cluster.syncs[0]
        rng = random.Random(5)
        for _ in range(200):
            signer = rng.randrange(1, n)
            wish = cluster.crypto.signatures.sign(
                signer, Wish(view=rng.randrange(1, 12))
            )
            sync.on_wish(signer, wish)
            highest = sorted(sync._highest_wish.values(), reverse=True)
            counts = {}
            for view in highest:
                counts[view] = counts.get(view, 0) + 1
            assert sync._wish_count == counts
            for k in range(1, n + 2):
                expected = highest[k - 1] if len(highest) >= k else None
                assert sync._kth_highest_wish(k) == expected
