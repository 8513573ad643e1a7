"""SMR deployment wiring and client helpers."""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.hashing import digest, stable_encode
from ..net.latency import ConstantLatency, LatencyModel
from ..net.network import Network
from ..net.simulator import Simulator
from ..net.transport import Transport
from ..sync.timeouts import FixedTimeout, TimeoutPolicy
from ..types import ReplicaId, Value
from .app import StateMachine
from .encoding import commands_in, decode_request
from .replica import ByzantineSlotMultiplexer, SMRReplica

AppFactory = Callable[[], StateMachine]

#: Builds one slot's Byzantine endpoint for a faulty SMR member:
#: ``factory(slot, slot_config, crypto, slot_transport) -> endpoint`` with
#: ``start()`` / ``on_message(src, msg)`` — the per-slot twin of the
#: deployment-level factories in :class:`~repro.core.protocol.
#: ProBFTDeployment`, reusing the same adversary classes.
SlotByzantineFactory = Callable[[int, ProtocolConfig, CryptoContext, object], object]


class SMRDeployment:
    """A replicated state machine over ``n`` SMR replicas.

    The workload is client commands submitted to every replica (simulating
    clients that broadcast their requests, the standard BFT client
    behaviour); the deployment runs until every correct replica has applied
    ``num_slots`` slots (or a time/event bound is hit).

    Faulty members come in two flavours: ids listed in ``byzantine_ids``
    are silently absent (crash-faulty from the protocol's point of view),
    while ``byzantine_factories`` maps ids to *active* per-slot behaviours
    (equivocating leaders, flooders — see :data:`SlotByzantineFactory`)
    hosted by a :class:`~repro.smr.replica.ByzantineSlotMultiplexer`.
    Together they must not exceed ``f``.

    ``batch_size`` / ``pipeline`` / ``max_pending`` are the serving hot-path
    knobs: commands per slot, concurrent slots in flight, and the pending
    backlog bound past which :meth:`submit_to_all` reports backpressure.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        app_factory: AppFactory,
        num_slots: int,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        timeout_policy: Optional[TimeoutPolicy] = None,
        byzantine_ids: Sequence[ReplicaId] = (),
        byzantine_factories: Optional[Mapping[ReplicaId, SlotByzantineFactory]] = None,
        pipeline: int = 1,
        batch_size: int = 1,
        max_pending: Optional[int] = None,
        eager_slots: bool = True,
        rotate_leaders: bool = False,
    ) -> None:
        self.config = config
        self.num_slots = num_slots
        self.rotate_leaders = rotate_leaders
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            config.n,
            latency=latency if latency is not None else ConstantLatency(1.0),
        )
        self.crypto = CryptoContext.pooled(
            config.n, master_seed=digest("smr-deployment", seed)
        )
        self.applied: Dict[ReplicaId, List[Tuple[int, Value]]] = {}
        byzantine_factories = dict(byzantine_factories or {})
        overlap = set(byzantine_ids) & set(byzantine_factories)
        if overlap:
            raise ValueError(
                f"replicas {sorted(overlap)} listed both silent and active"
            )
        faulty = set(byzantine_ids) | set(byzantine_factories)
        if len(faulty) > config.f:
            raise ValueError("too many Byzantine replicas")
        self.byzantine_ids: FrozenSet[ReplicaId] = frozenset(faulty)
        self._next_client_id = 0
        # Request-apply watchers, keyed by client id.  Each apply decodes
        # each command once here and dispatches to the owning client's
        # watcher — O(1) per command — instead of every attached client
        # re-decoding every command (the old chained-recorder scheme was
        # O(clients · applies), the ceiling that kept trials under ~100
        # clients).
        self._apply_watchers: Dict[
            int, List[Callable[[ReplicaId, int, Value, Tuple[int, int, Value]], None]]
        ] = {}

        self.replicas: Dict[ReplicaId, SMRReplica] = {}
        self.byzantine_endpoints: Dict[ReplicaId, ByzantineSlotMultiplexer] = {}
        for r in range(config.n):
            if r in self.byzantine_ids:
                continue
            transport = Transport(self.network, r)
            replica = SMRReplica(
                replica_id=r,
                config=config,
                crypto=self.crypto,
                transport=transport,
                app=app_factory(),
                num_slots=num_slots,
                timeout_policy=timeout_policy or FixedTimeout(30.0),
                on_apply=self._record_apply,
                pipeline=pipeline,
                batch_size=batch_size,
                max_pending=max_pending,
                eager_slots=eager_slots,
                rotate_leaders=rotate_leaders,
            )
            self.network.register(r, replica.on_message)
            self.replicas[r] = replica
        for r in self.byzantine_ids:
            factory = byzantine_factories.get(r)
            if factory is None:
                # Silent faulty member: registered but inert.
                self.network.register(r, lambda _src, _msg: None)
                continue
            endpoint = ByzantineSlotMultiplexer(
                replica_id=r,
                config=config,
                crypto=self.crypto,
                transport=Transport(self.network, r),
                num_slots=num_slots,
                slot_factory=factory,
                pipeline=pipeline,
                rotate_leaders=rotate_leaders,
            )
            self.network.register(r, endpoint.on_message)
            self.byzantine_endpoints[r] = endpoint
        self._started = False

    def _record_apply(self, replica: ReplicaId, slot: int, value: Value) -> None:
        self.applied.setdefault(replica, []).append((slot, value))
        if not self._apply_watchers:
            return
        for command in commands_in(value):
            decoded = decode_request(command)
            if decoded is None:
                continue
            for watcher in self._apply_watchers.get(decoded[0], ()):
                watcher(replica, slot, command, decoded)

    def watch_applies(
        self,
        client_id: int,
        watcher: Callable[[ReplicaId, int, Value, Tuple[int, int, Value]], None],
    ) -> None:
        """Subscribe to applies of requests enveloped for ``client_id``.

        ``watcher(replica, slot, command, (client_id, seq, payload))`` fires
        once per replica apply of each matching request.
        """
        self._apply_watchers.setdefault(client_id, []).append(watcher)

    # ------------------------------------------------------------------
    def allocate_client_id(self) -> int:
        """Hand out the next unused client id (deployment-scoped)."""
        cid = self._next_client_id
        self._next_client_id += 1
        return cid

    def submit_to_all(self, command: Value) -> bool:
        """A client broadcasts one command to every replica.

        Returns ``False`` — and submits to *no* replica — when any replica's
        pending queue is full (``max_pending``).  All-or-nothing matters:
        partial submission would leave replica queues divergent, so
        backpressure rejects the request wholesale and the client retries.
        """
        if any(
            replica.max_pending is not None
            and replica.pending_commands >= replica.max_pending
            for replica in self.replicas.values()
        ):
            for replica in self.replicas.values():
                replica._rejected_submits += 1
            return False
        for replica in self.replicas.values():
            accepted = replica.submit(command)
            assert accepted, "per-replica submit cannot fail after the gate"
        return True

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for replica in self.replicas.values():
            replica.start()
        for endpoint in self.byzantine_endpoints.values():
            endpoint.start()

    @property
    def started(self) -> bool:
        return self._started

    def run(
        self, max_time: Optional[float] = None, max_events: int = 20_000_000
    ) -> "SMRDeployment":
        self.start()
        self.sim.run(
            until=max_time,
            max_events=max_events,
            stop_when=self.all_applied,
        )
        return self

    # ------------------------------------------------------------------
    @property
    def correct_ids(self) -> FrozenSet[ReplicaId]:
        return frozenset(self.replicas)

    def all_applied(self) -> bool:
        return all(r.decided_all() for r in self.replicas.values())

    def logs_consistent(self) -> bool:
        """All correct replicas applied identical command *prefixes*.

        Replicas stopped mid-run (a serving workload halts when its request
        budget completes, not at ``all_applied``) may lag each other in how
        far they have applied — that is liveness, not a safety violation.
        The agreement property is that the applied sequences agree on their
        common prefix; after a full run (equal lengths) this is the original
        whole-log comparison.
        """
        logs = [
            tuple(
                replica.log.value_of(s)
                for s in range(1, replica.log.applied_up_to + 1)
            )
            for replica in self.replicas.values()
        ]
        if not logs:
            return True
        shortest = min(len(log) for log in logs)
        return len({log[:shortest] for log in logs}) <= 1

    def snapshots(self) -> Dict[ReplicaId, object]:
        return {r: rep.log.app.snapshot() for r, rep in self.replicas.items()}

    def snapshots_consistent(self) -> bool:
        """Correct replicas at equal applied height hold equal app state.

        A serving run stops once every request has ``f + 1`` applies, so
        healthy replicas may stop a slot or two apart; states at different
        heights legitimately differ and are not compared
        (:meth:`logs_consistent` checks that the applied sequences agree on
        their common prefix).  Compares canonical encodings
        (:func:`~repro.crypto.hashing.stable_encode`), not ``repr`` — two
        equal snapshots that differ only in container iteration order
        (dict insertion order, set ordering) must compare equal.
        """
        by_height: Dict[int, Set[bytes]] = {}
        for replica in self.replicas.values():
            by_height.setdefault(replica.log.applied_up_to, set()).add(
                stable_encode(replica.log.app.snapshot())
            )
        return all(len(encodings) <= 1 for encodings in by_height.values())
