"""The unified trial lifecycle: one spec, one runner, every protocol.

Before this layer existed, each protocol had its own copy-pasted runner and
every experiment surface (Monte-Carlo estimators, the scenario matrix, the
benchmarks, the CLI) wired deployments by hand.  Now a trial is data:

* :class:`DeploymentSpec` — a frozen, declarative description of one trial:
  which protocol, at what size, under which seed, network conditions,
  adversary, and budgets.  Specs are cheap, comparable, and picklable
  (modulo the callables they carry), so they travel through
  :class:`~repro.harness.parallel.ExperimentEngine` workers unchanged.
* :class:`TrialContext` — the lifecycle object pairing a spec with its
  constructed deployment: ``build()`` instantiates the protocol's
  deployment (crypto comes from the per-process
  :meth:`~repro.crypto.context.CryptoContext.pooled` pool keyed by
  ``(n, master_seed)``), ``execute()`` drives it to completion and
  summarizes it as a :class:`RunResult`.
* :func:`run_trial` — the one protocol-dispatched entry point:
  ``run_trial(spec) == TrialContext(spec).execute()``;
  :func:`good_case_metrics` is its fault-free unit-latency special case.

With :class:`~repro.net.latency.ConstantLatency` of 1.0 and instantaneous
local deliveries, the *latest decision time* equals the protocol's number of
communication steps in the good case — which is how the Figure-1a bench
measures steps.

Protocol dispatch is the constant :data:`PROTOCOLS` mapping; every entry is
the one shared :class:`~repro.core.deployment.ConsensusDeployment` with its
own replica class, so all protocols run through the same wiring.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from ..baselines.hotstuff.protocol import HotStuffDeployment
from ..baselines.pbft.protocol import PbftDeployment
from ..config import ProtocolConfig
from ..core.deployment import ConsensusDeployment
from ..core.protocol import ProBFTDeployment
from ..crypto.context import CryptoContext
from ..net.faults import ChaosPolicy
from ..net.latency import ConstantLatency, LatencyModel
from ..sync.timeouts import TimeoutPolicy
from ..types import ReplicaId, Value

__all__ = [
    "PROTOCOLS",
    "DeploymentSpec",
    "RunResult",
    "TrialContext",
    "good_case_metrics",
    "deployment_class",
    "list_protocols",
    "run_trial",
    "SYNCHRONIZER_TYPES",
]

#: Message types that belong to view synchronization, not the protocol
#: proper; the paper's message-complexity comparison excludes them.
SYNCHRONIZER_TYPES = ("Wish",)


@dataclass
class RunResult:
    """Outcome of one protocol run."""

    protocol: str
    n: int
    f: int
    decided: int
    n_correct: int
    all_decided: bool
    agreement_ok: bool
    decided_values: Tuple[Value, ...]
    decision_views: Tuple[int, ...]
    max_view: int
    sim_time: float
    last_decision_time: float
    messages_by_type: Dict[str, int] = field(default_factory=dict)
    total_messages: int = 0
    #: Canonical-encoding bytes sent; 0 unless the deployment was built with
    #: ``track_bytes=True`` (encoding every message has a measurable cost).
    total_bytes: int = 0
    #: Peak Python heap during build+run in MiB (tracemalloc); ``None``
    #: unless the spec set ``track_memory=True`` (tracing costs ~2x wall
    #: clock, so it is strictly opt-in telemetry).
    peak_mem_mb: Optional[float] = None

    @property
    def protocol_messages(self) -> int:
        """Messages excluding synchronizer traffic (paper's comparison basis)."""
        return self.total_messages - sum(
            self.messages_by_type.get(t, 0) for t in SYNCHRONIZER_TYPES
        )

    @property
    def steps(self) -> float:
        """Communication steps (== last decision time under unit latency)."""
        return self.last_decision_time


#: Protocol name → deployment class.  Every class is a
#: :class:`~repro.core.deployment.ConsensusDeployment` and takes the keyword
#: arguments a :class:`DeploymentSpec` carries.
PROTOCOLS: Mapping[str, Type[ConsensusDeployment]] = MappingProxyType(
    {
        "probft": ProBFTDeployment,
        "pbft": PbftDeployment,
        "hotstuff": HotStuffDeployment,
    }
)


def list_protocols() -> List[str]:
    """All protocol names, sorted."""
    return sorted(PROTOCOLS)


def deployment_class(protocol: str) -> Type[ConsensusDeployment]:
    """The deployment class running ``protocol``."""
    try:
        return PROTOCOLS[protocol]
    except KeyError:
        raise KeyError(
            f"unknown protocol {protocol!r}; registered: "
            f"{', '.join(list_protocols())}"
        ) from None


@dataclass(frozen=True)
class DeploymentSpec:
    """Everything needed to run one trial, as declarative data.

    ``protocol`` selects the deployment class from :data:`PROTOCOLS`; the
    remaining fields are the constructor's keyword arguments plus the
    driving budgets (``max_time``/``max_events``).
    """

    protocol: str
    config: ProtocolConfig
    seed: int = 0
    latency: Optional[LatencyModel] = None
    gst: float = 0.0
    chaos: Optional[ChaosPolicy] = None
    timeout_policy: Optional[TimeoutPolicy] = None
    values: Optional[Dict[ReplicaId, Value]] = None
    byzantine: Optional[Dict[ReplicaId, Any]] = None
    #: Network-level message duplication probability (receivers must dedup).
    duplicate_prob: float = 0.0
    #: Account per-message canonical-encoding bytes (costs one encode each).
    track_bytes: bool = False
    #: Run the scale stack: multicasts go through the deployment's sparse
    #: delivery policy (coalesced fan-out events; see
    #: :mod:`repro.net.sparse`) and ProBFT keeps its votes in columnar
    #: arrays (:mod:`repro.core.columnar`).  Golden-seed equivalent to dense
    #: mode but orders of magnitude fewer simulator events at large n.  Off
    #: by default: dense is the reference semantics.
    sparse: bool = False
    #: Leader-proposal dissemination: ``"dense"`` (reference semantics, an
    #: O(n) broadcast) or ``"gossip"`` (sample-and-forward with O(log n)
    #: per-node fan-out; see :mod:`repro.net.gossip`).
    dissemination: str = "dense"
    #: Gossip knobs; None means the protocol default ``⌈log2 n⌉ + 2``.
    gossip_fanout: Optional[int] = None
    gossip_rounds: Optional[int] = None
    #: Record the trial's peak Python heap (tracemalloc) in
    #: :attr:`RunResult.peak_mem_mb`.  Costs ~2x wall clock; telemetry only
    #: — it never changes protocol behaviour.
    track_memory: bool = False
    #: Crypto context to use instead of the per-process pooled one.
    crypto: Optional[CryptoContext] = None
    max_time: Optional[float] = None
    max_events: int = 5_000_000

    def with_seed(self, seed: int) -> "DeploymentSpec":
        """The same trial under a different seed (for seeded fan-out)."""
        return replace(self, seed=seed)

    def with_sparse(self, sparse: bool = True) -> "DeploymentSpec":
        """The same trial with the scale stack toggled (for A/B equivalence)."""
        return replace(self, sparse=sparse)

    def with_gossip(
        self,
        enabled: bool = True,
        fanout: Optional[int] = None,
        rounds: Optional[int] = None,
    ) -> "DeploymentSpec":
        """The same trial with gossip dissemination toggled.

        ``with_gossip(False)`` returns the dense-dissemination twin with the
        knobs cleared — the A/B partner for bit-identity checks.
        """
        if not enabled:
            return replace(
                self, dissemination="dense", gossip_fanout=None, gossip_rounds=None
            )
        return replace(
            self,
            dissemination="gossip",
            gossip_fanout=fanout,
            gossip_rounds=rounds,
        )

    def build(self):
        """Construct the protocol's deployment (does not run it)."""
        return deployment_class(self.protocol)(
            self.config,
            seed=self.seed,
            latency=self.latency,
            gst=self.gst,
            chaos=self.chaos,
            timeout_policy=self.timeout_policy,
            values=self.values,
            byzantine=self.byzantine,
            duplicate_prob=self.duplicate_prob,
            track_bytes=self.track_bytes,
            crypto=self.crypto,
            sparse=self.sparse,
            dissemination=self.dissemination,
            gossip_fanout=self.gossip_fanout,
            gossip_rounds=self.gossip_rounds,
        )


class TrialContext:
    """The lifecycle of one trial: spec → deployment → result.

    ``build()`` and ``execute()`` are idempotent; the deployment stays
    reachable after execution for callers that inspect more than the
    :class:`RunResult` summary (traces, per-replica state).
    """

    def __init__(self, spec: DeploymentSpec) -> None:
        self.spec = spec
        self.deployment: Optional[Any] = None
        self.result: Optional[RunResult] = None

    def build(self):
        if self.deployment is None:
            self.deployment = self.spec.build()
        return self.deployment

    def execute(self) -> RunResult:
        if self.result is None:
            track = self.spec.track_memory
            if track:
                import tracemalloc

                # Nested tracking (e.g. a tracked trial inside a tracked
                # sweep) reuses the outer trace and just resets the peak.
                nested = tracemalloc.is_tracing()
                if nested:
                    tracemalloc.reset_peak()
                else:
                    tracemalloc.start()
            try:
                deployment = self.build()
                # Cyclic-GC collections dominate wall clock at large n: a
                # trial keeps ~n·s live acyclic objects (votes, quorum
                # buckets, queue entries) that every generation-2 scan
                # re-traverses for nothing — at n=2000 the collector costs
                # more than the protocol.  All per-message garbage is
                # refcount-freed, so pausing the cycle collector for the
                # run changes no observable behaviour.
                was_enabled = gc.isenabled()
                if was_enabled:
                    gc.disable()
                try:
                    deployment.run(
                        max_time=self.spec.max_time,
                        max_events=self.spec.max_events,
                    )
                finally:
                    if was_enabled:
                        gc.enable()
            finally:
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    if not nested:
                        tracemalloc.stop()
            self.result = summarize(self.spec.protocol, deployment)
            if track:
                self.result.peak_mem_mb = peak / (1024.0 * 1024.0)
        return self.result


def summarize(protocol: str, deployment) -> RunResult:
    """Collapse a finished deployment into the uniform :class:`RunResult`."""
    correct = deployment.correct_ids
    decisions = {
        r: d for r, d in deployment.decisions.items() if r in correct
    }
    times = [d.time for d in decisions.values()]
    return RunResult(
        protocol=protocol,
        n=deployment.config.n,
        f=deployment.config.f,
        decided=len(decisions),
        n_correct=len(correct),
        all_decided=len(decisions) == len(correct),
        agreement_ok=deployment.agreement_ok,
        decided_values=tuple(sorted(deployment.decided_values())),
        decision_views=tuple(sorted({d.view for d in decisions.values()})),
        max_view=max((d.view for d in decisions.values()), default=0),
        sim_time=deployment.sim.now,
        last_decision_time=max(times, default=float("nan")),
        messages_by_type=dict(deployment.network.stats.sent_by_type),
        total_messages=deployment.network.stats.sent_total,
        total_bytes=deployment.network.stats.bytes_total,
    )


def run_trial(spec: DeploymentSpec) -> RunResult:
    """Build, drive, and summarize one trial — the single protocol runner."""
    return TrialContext(spec).execute()


def good_case_metrics(
    protocol: str,
    config: ProtocolConfig,
    seed: int = 0,
    require_view1: bool = False,
    max_retries: int = 25,
) -> RunResult:
    """Fault-free run with unit latency: steps == last decision time.

    With ``require_view1=True``, retries across seeds until a run decides
    entirely in view 1.  ProBFT is probabilistic: with small ``n`` a replica
    occasionally misses its quorum and a view change fires — legal behaviour,
    but the good-case complexity comparisons condition on view-1 success.
    """
    deployment_class(protocol)  # unknown names fail before any trial runs
    last = None
    for attempt in range(max_retries):
        last = run_trial(
            DeploymentSpec(
                protocol=protocol,
                config=config,
                seed=seed + attempt,
                latency=ConstantLatency(1.0),
                max_time=10_000,
            )
        )
        if not require_view1 or (last.all_decided and last.max_view == 1):
            return last
    raise RuntimeError(
        f"no view-1 good case within {max_retries} seeds for {protocol} "
        f"n={config.n}"
    )
