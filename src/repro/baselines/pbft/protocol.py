"""PBFT deployment wiring (mirrors :class:`repro.core.protocol.ProBFTDeployment`)."""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Optional, Set

from ...config import ProtocolConfig
from ...crypto.context import CryptoContext
from ...crypto.hashing import digest
from ...net.faults import ChaosPolicy
from ...net.latency import LatencyModel
from ...net.network import Network
from ...net.sparse import CoalescingDelivery
from ...net.simulator import Simulator
from ...net.transport import Transport
from ...sync.timeouts import TimeoutPolicy
from ...types import Decision, ReplicaId, Value
from .replica import PbftReplica

ByzantineFactory = Callable[
    [ReplicaId, ProtocolConfig, CryptoContext, Transport], object
]


def default_value(replica: ReplicaId) -> Value:
    return f"value-{replica}".encode()


class PbftDeployment:
    """One single-shot PBFT consensus instance on a simulated network."""

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
    ) -> None:
        self.config = config
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
        self.crypto = crypto if crypto is not None else CryptoContext.pooled(
            config.n, master_seed=digest("pbft-deployment", seed)
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

        self.replicas: Dict[ReplicaId, object] = {}
        for r in range(config.n):
            transport = Transport(self.network, r)
            if r in byzantine:
                replica = byzantine[r](r, config, self.crypto, transport)
            else:
                replica = PbftReplica(
                    replica_id=r,
                    config=config,
                    crypto=self.crypto,
                    transport=transport,
                    my_value=values.get(r, default_value(r)),
                    timeout_policy=timeout_policy,
                    on_decide=self._record_decision,
                )
            self.network.register(r, replica.on_message)
            self.replicas[r] = replica
        self.sparse = sparse
        if sparse:
            # Deterministic-quorum votes go to everyone, so there is nothing
            # to prune — sparse mode here is pure event coalescing (one
            # simulator event per distinct delivery time instead of one per
            # recipient), which is what tames the O(n^2) broadcast storms.
            self.network.use_delivery_policy(CoalescingDelivery())
        self._started = False

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
    ) -> "PbftDeployment":
        self.start()
        stop = self.all_correct_decided if stop_when_decided else None
        # Sparse fan-outs probe this between coalesced deliveries so they
        # keep dense mode's per-delivery stop granularity.
        self.network.stop_probe = stop
        self.sim.run(until=max_time, max_events=max_events, stop_when=stop)
        return self

    def _record_decision(self, decision: Decision) -> None:
        self.decisions[decision.replica] = decision

    @property
    def correct_ids(self) -> FrozenSet[ReplicaId]:
        return self._correct_ids

    def all_correct_decided(self) -> bool:
        # Decisions are recorded by correct replicas only, so a length check
        # suffices — this runs between every pair of deliveries and must be
        # O(1), not O(n).
        return len(self.decisions) >= len(self._correct_ids)

    def decided_values(self) -> Set[Value]:
        return {
            d.value for r, d in self.decisions.items() if r in self.correct_ids
        }

    @property
    def agreement_ok(self) -> bool:
        return len(self.decided_values()) <= 1
