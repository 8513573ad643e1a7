"""Consensus-deployment wiring shared by ProBFT, PBFT and HotStuff.

:class:`ConsensusDeployment` builds the simulator, network, crypto context
and ``n`` replicas (honest by default; Byzantine replicas are supplied as
factories from :mod:`repro.adversary`), then drives the run until all correct
replicas decide (or a time/event budget runs out).  Every protocol runs
through this one class, so the Figure-1 comparisons share their simulator,
network, crypto and stop-rule wiring by construction.

A protocol supplies its honest :attr:`~ConsensusDeployment.replica_class`
and its crypto :attr:`~ConsensusDeployment.seed_label`; ProBFT additionally
overrides the three hooks below for its scale stack and gossip.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.hashing import digest
from ..net.faults import ChaosPolicy
from ..net.latency import LatencyModel
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.sparse import SparseDeliveryPolicy
from ..net.transport import Transport
from ..sync.timeouts import TimeoutPolicy
from ..types import Decision, ReplicaId, Value

#: Factory building a Byzantine replica endpoint.  The returned object must
#: expose ``start()`` and ``on_message(src, message)``.
ByzantineFactory = Callable[[ReplicaId, ProtocolConfig, CryptoContext, Transport], object]


def default_value(replica: ReplicaId) -> Value:
    """Distinct per-replica proposal used when the caller supplies none."""
    return f"value-{replica}".encode()


class ConsensusDeployment:
    """One consensus instance: n replicas, a network, and a clock.

    Subclasses set :attr:`replica_class` and :attr:`seed_label`; the
    constructor keywords are the same for every protocol.
    """

    #: Honest replica class, built as ``replica_class(replica_id=, config=,
    #: crypto=, transport=, my_value=, timeout_policy=, on_decide=,
    #: **self._replica_kwargs())``.
    replica_class: type
    #: Label mixed into the pooled crypto context's master seed.
    seed_label: str

    def __init__(
        self,
        config: ProtocolConfig,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        gst: float = 0.0,
        chaos: Optional[ChaosPolicy] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        values: Optional[Dict[ReplicaId, Value]] = None,
        byzantine: Optional[Dict[ReplicaId, ByzantineFactory]] = None,
        duplicate_prob: float = 0.0,
        track_bytes: bool = False,
        crypto: Optional[CryptoContext] = None,
        sparse: bool = False,
        dissemination: str = "dense",
        gossip_fanout: Optional[int] = None,
        gossip_rounds: Optional[int] = None,
    ) -> None:
        if dissemination not in ("dense", "gossip"):
            raise ValueError(
                f"dissemination must be 'dense' or 'gossip', got {dissemination!r}"
            )
        self.config = config
        self.seed = seed
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            config.n,
            latency=latency,
            gst=gst,
            chaos=chaos,
            duplicate_prob=duplicate_prob,
            duplicate_seed=seed,
            track_bytes=track_bytes,
        )
        # Same-config trials share one pooled (immutable) context instead of
        # re-deriving n key pairs; pass ``crypto=`` to override.
        self.crypto = crypto if crypto is not None else CryptoContext.pooled(
            config.n, master_seed=digest(self.seed_label, seed)
        )
        self.decisions: Dict[ReplicaId, Decision] = {}

        byzantine = byzantine or {}
        if len(byzantine) > config.f:
            raise ValueError(
                f"{len(byzantine)} Byzantine replicas exceeds f={config.f}"
            )
        self.byzantine_ids: FrozenSet[ReplicaId] = frozenset(byzantine)
        self._correct_ids: FrozenSet[ReplicaId] = (
            frozenset(range(config.n)) - self.byzantine_ids
        )
        values = values or {}
        self.sparse = sparse
        replica_kwargs = self._replica_kwargs()
        self.disseminator: Optional[object] = (
            self._gossip(gossip_fanout, gossip_rounds)
            if dissemination == "gossip"
            else None
        )

        self.replicas: Dict[ReplicaId, object] = {}
        for r in range(config.n):
            transport = Transport(self.network, r)
            if self.disseminator is not None:
                transport.use_disseminator(self.disseminator)
            if r in byzantine:
                replica = byzantine[r](r, config, self.crypto, transport)
            else:
                replica = self.replica_class(
                    replica_id=r,
                    config=config,
                    crypto=self.crypto,
                    transport=transport,
                    my_value=values.get(r, default_value(r)),
                    timeout_policy=timeout_policy,
                    on_decide=self._record_decision,
                    **replica_kwargs,
                )
            handler = replica.on_message
            if self.disseminator is not None:
                # Gossip hops travel as unicast envelopes and therefore hit
                # the registered handler directly in both dense and sparse
                # delivery modes; the wrapper unwraps (and, for correct
                # recipients, relays) before the protocol sees the payload.
                handler = self.disseminator.wrap_handler(r, handler)
            self.network.register(r, handler)
            self.replicas[r] = replica
        if sparse:
            self._use_sparse_delivery(dup_possible=duplicate_prob > 0.0)
        self._started = False

    # ------------------------------------------------------------------
    # Protocol hooks
    # ------------------------------------------------------------------
    def _replica_kwargs(self) -> dict:
        """Extra keyword arguments for every honest replica (default none)."""
        return {}

    def _gossip(self, fanout: Optional[int], rounds: Optional[int]) -> object:
        """The gossip disseminator for ``dissemination="gossip"``."""
        raise ValueError(
            f"{type(self).__name__} supports only dense dissemination; "
            "gossip dissemination is ProBFT's"
        )

    def _use_sparse_delivery(self, dup_possible: bool) -> None:
        """Attach the scale stack's delivery policy (``sparse=True``).

        The default is pure event coalescing: one simulator event per
        distinct delivery time instead of one per recipient, which is what
        tames deterministic-quorum protocols' O(n^2) broadcast storms.
        """
        self.network.use_delivery_policy(SparseDeliveryPolicy())

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for replica in self.replicas.values():
            replica.start()

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: int = 5_000_000,
        stop_when_decided: bool = True,
    ) -> "ConsensusDeployment":
        """Run until every correct replica decides (or a budget runs out)."""
        self.start()
        stop = self.all_correct_decided if stop_when_decided else None
        # Sparse fan-outs probe this between coalesced deliveries so they
        # keep dense mode's per-delivery stop granularity.
        self.network.stop_probe = stop
        self.sim.run(until=max_time, max_events=max_events, stop_when=stop)
        return self

    def _record_decision(self, decision: Decision) -> None:
        self.decisions[decision.replica] = decision

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def correct_ids(self) -> FrozenSet[ReplicaId]:
        return self._correct_ids

    def correct_replicas(self) -> Dict[ReplicaId, object]:
        return {
            r: replica
            for r, replica in self.replicas.items()
            if r in self.correct_ids
        }

    def all_correct_decided(self) -> bool:
        # Decisions are recorded by correct replicas only, so a length check
        # suffices — this runs between every pair of deliveries (stop_when /
        # stop_probe) and must be O(1), not O(n).
        return len(self.decisions) >= len(self._correct_ids)

    def decided_values(self) -> Set[Value]:
        """Distinct values decided by *correct* replicas."""
        return {
            d.value for r, d in self.decisions.items() if r in self.correct_ids
        }

    @property
    def agreement_ok(self) -> bool:
        """True iff correct replicas decided at most one distinct value."""
        return len(self.decided_values()) <= 1

    @property
    def max_decision_view(self) -> int:
        views = [
            d.view for r, d in self.decisions.items() if r in self.correct_ids
        ]
        return max(views, default=0)
