"""The benchmark's workloads and the one-trial runners behind them.

Every workload drives the program through its public entry points, one
fresh seed per trial:

* ``consensus-happy`` and ``consensus-faults`` run
  ``MatrixCell(columnar=True)`` → ``cell_deployment_spec`` →
  ``TrialContext(spec).execute()`` (the body of ``run_trial``; the context
  keeps the deployment reachable for the output checks);
* ``serve-open`` runs ``run_serving_trial``; the deployment it builds is
  captured by wrapping ``build_serving_deployment`` for the same reason.

A trial returns a :class:`TrialOutcome`: its wall time, the deterministic
outputs that the correctness checks and the per-seed fingerprint use, and
the per-layer counts the program already keeps (simulator events, network
totals, crypto memo statistics).
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Tuple

from repro.crypto.hashing import stable_encode
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import TrialContext
from repro.smr import workload as smr_workload
from repro.smr.encoding import decode_request

#: Horizon for consensus trials (sim-time units).  Far beyond the slowest
#: view change these cells take, so it never cuts a trial short.
CONSENSUS_MAX_TIME = 2000.0


@dataclass
class TrialOutcome:
    """What one trial produced, as the benchmark measures and checks it."""

    cell: str
    seed: int
    wall_s: float
    #: Client requests the trial attempted: the single proposal of a
    #: consensus trial, the workload's ``total_requests`` for serving.
    requests: int
    #: Requests completed live (consensus: every correct replica decided
    #: with agreement; serving: non-recovered completions).
    completed: int
    #: Correct decisions (consensus: deciding replicas; serving: slots
    #: applied, summed over correct replicas).
    decisions: int
    protocol_msgs: int
    #: The trial's median decision time (sim time): over correct replicas'
    #: decisions for consensus; for serving, where a request is decided at
    #: ``f + 1`` applies, over its requests' latencies.
    decide_time: float
    #: Per-request latencies (sim time), both at the ``f + 1`` replies a
    #: client waits for.  Consensus: the one request, decided at the
    #: ``f + 1``-th correct decision; serving: each live completion.
    latencies: List[float]
    #: Named output checks; every one must hold.
    checks: Dict[str, bool]
    #: Per-layer counts the program keeps itself (no tracing needed).
    layer: Dict[str, float] = field(default_factory=dict)
    #: This machine's speed around the trial, relative to the reference
    #: speed (see ``bench.reference_speed``); 1.0 when not measured.
    speed: float = 1.0
    #: Reference-loop seconds just before and just after the trial.
    reference_s: Tuple[float, float] = (0.0, 0.0)
    #: Descriptive extras for the report (labels, serving counters).
    info: Dict[str, object] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Digest of the deterministic outputs: equal for equal code and seed."""
        parts = (
            self.cell,
            self.seed,
            self.requests,
            self.completed,
            self.decisions,
            self.protocol_msgs,
            float(self.decide_time).hex(),
            tuple(float(x).hex() for x in self.latencies),
            self.info.get("outputs"),
        )
        return hashlib.sha256(repr(parts).encode()).hexdigest()[:32]


def _crypto_layer(crypto) -> Dict[str, float]:
    """Memo counters of the trial's crypto context.  Timed seeds are fresh,
    so the pooled VRF is new to the trial and its counters are the trial's."""
    sig = crypto.signatures.cache_stats()
    vrf = crypto.vrf.cache_stats()
    return {
        "crypto.verify_memo_hits": sig["hits"],
        "crypto.verify_memo_misses": sig["misses"],
        "crypto.vrf_prove_memo_hits": vrf["prove_hits"],
        "crypto.vrf_prove_memo_misses": vrf["prove_misses"],
        "crypto.memo_evictions": sig["evictions"] + vrf["evictions"],
    }


def _sim_layer(deployment) -> Dict[str, float]:
    stats = deployment.network.stats
    return {
        "simulator.events": deployment.sim.events_processed,
        "network.msgs_sent": stats.sent_total,
        "network.deliveries": stats.delivered_total,
    }


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile: always one of the samples, bit-exact."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# Consensus workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConsensusWorkload:
    """ProBFT trials on the columnar scale stack, one fresh seed each.

    Trials cycle through ``adversaries`` by trial index, so a run holds an
    equal number of trials of every fault cell.
    """

    name: str
    n: int
    f: int
    latency: str
    adversaries: Tuple[str, ...]
    #: Trials per second of ``--seconds``: sizes a run as a fixed trial
    #: count that never depends on measured speed (see README.md).
    trials_per_run_second: float
    why: str

    #: How a run summarizes a cell's per-trial values.  Consensus seeds
    #: differ in how many views their stragglers take (a quarter or more of
    #: equivocation trials reach view 4 and cost up to 1.7x a view-3 trial);
    #: that share is part of the workload, so a cell's trials are averaged.
    location = staticmethod(statistics.fmean)

    @property
    def cells(self) -> Tuple[str, ...]:
        return self.adversaries

    def _cell(self, adversary: str) -> MatrixCell:
        return MatrixCell(
            "probft", adversary, self.latency, self.n, self.f, columnar=True
        )

    def run_trial(self, cell: str, seed: int) -> TrialOutcome:
        spec = cell_deployment_spec(
            self._cell(cell), seed=seed, max_time=CONSENSUS_MAX_TIME
        )
        context = TrialContext(spec)
        start = time.perf_counter()
        result = context.execute()
        wall = time.perf_counter() - start
        deployment = context.deployment
        correct = deployment.correct_ids
        times = sorted(
            d.time for r, d in deployment.decisions.items() if r in correct
        )
        f = spec.config.f
        ok = result.all_decided and result.agreement_ok
        layer = _sim_layer(deployment)
        layer.update(_crypto_layer(deployment.crypto))
        layer["sync.view_changes"] = max(result.max_view - 1, 0)
        return TrialOutcome(
            cell=cell,
            seed=seed,
            wall_s=wall,
            requests=1,
            completed=1 if ok else 0,
            decisions=result.decided,
            protocol_msgs=result.protocol_messages,
            decide_time=percentile(times, 50),
            latencies=times[f : f + 1],
            checks={"agreement_ok": result.agreement_ok},
            layer=layer,
            info={
                "queue_mode": deployment.sim.queue_mode,
                "last_decision_time": result.last_decision_time,
                "outputs": (result.decided_values, result.decision_views),
            },
        )


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
@contextmanager
def _capture_serving_deployment() -> Iterator[list]:
    """Record each deployment ``run_serving_trial`` builds."""
    built: list = []
    original = smr_workload.build_serving_deployment  # traced when tracing

    def capture(spec):
        deployment = original(spec)
        built.append(deployment)
        return deployment

    smr_workload.build_serving_deployment = capture
    try:
        yield built
    finally:
        smr_workload.build_serving_deployment = original


def _snapshots_agree_by_height(deployment) -> bool:
    """Replicas that applied the same number of slots hold equal state.

    A serving trial stops once each request has ``f + 1`` applies, so
    replicas legitimately stop at different heights; state can only be
    compared between replicas at the same height.
    """
    by_height: Dict[int, set] = {}
    for replica in deployment.replicas.values():
        by_height.setdefault(replica.log.applied_up_to, set()).add(
            stable_encode(replica.log.app.snapshot())
        )
    return all(len(states) == 1 for states in by_height.values())


@dataclass(frozen=True)
class ServingWorkload:
    """Open-loop SMR serving through ``run_serving_trial``."""

    name: str
    n: int
    num_clients: int
    requests_per_client: int
    offered_rate: float
    max_time: float
    trials_per_run_second: float
    why: str

    #: About one serving trial in five stalls (see README.md) and spins in
    #: retries until the horizon at 2-3x the wall time; the stall is counted
    #: in ``failed``, so a run summarizes its trials by the median.
    location = staticmethod(statistics.median)

    @property
    def cells(self) -> Tuple[str, ...]:
        return ("none",)

    def spec(self, seed: int) -> "smr_workload.ServingSpec":
        return smr_workload.ServingSpec(
            n=self.n,
            adversary="none",
            load="high",
            num_clients=self.num_clients,
            requests_per_client=self.requests_per_client,
            rotate_leaders=True,
            arrival="open",
            offered_rate=self.offered_rate,
            max_time=self.max_time,
            seed=seed,
        )

    def run_trial(self, cell: str, seed: int) -> TrialOutcome:
        spec = self.spec(seed)
        with _capture_serving_deployment() as built:
            start = time.perf_counter()
            result = smr_workload.run_serving_trial(spec)
            wall = time.perf_counter() - start
        deployment = built[-1]
        replicas = deployment.replicas.values()
        decisions = sum(r.log.applied_up_to for r in replicas)
        ordered = sum(
            1
            for commands in deployment.applied.values()
            for _slot, command in commands
            if decode_request(command) is not None
        )
        view_changes = 0
        top = max((r.log.applied_up_to for r in replicas), default=0)
        for slot in range(1, top + 1):
            views = [
                inst.decision.view
                for inst in (r.slot_replica(slot) for r in replicas)
                if inst is not None and inst.decision is not None
            ]
            if views:
                view_changes += max(views) - 1
        layer = _sim_layer(deployment)
        layer.update(_crypto_layer(deployment.crypto))
        layer["sync.view_changes"] = view_changes
        layer["smr.requests_ordered"] = ordered
        layer["smr.slots_applied"] = decisions
        live = result.completed - result.recovered
        total = spec.workload().total_requests
        return TrialOutcome(
            cell=cell,
            seed=seed,
            wall_s=wall,
            requests=total,
            completed=live,
            decisions=decisions,
            protocol_msgs=deployment.network.stats.sent_total,
            decide_time=percentile(list(result.latencies), 50),
            latencies=list(result.latencies),
            checks={
                "logs_consistent": result.logs_consistent,
                "snapshots_agree_by_height": _snapshots_agree_by_height(deployment),
            },
            layer=layer,
            info={
                "issued": result.issued,
                "retries": result.retries,
                "recovered": result.recovered,
                "timed_out": result.timed_out,
                "snapshots_consistent": deployment.snapshots_consistent(),
                "queue_mode": deployment.sim.queue_mode,
                "realized_rate": result.issued / result.sim_time
                if result.sim_time > 0
                else 0.0,
                "outputs": (result.slots_applied, result.retries, result.sim_time),
            },
        )


WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        ConsensusWorkload(
            name="consensus-happy",
            n=1000,
            f=199,
            latency="constant",
            adversaries=("none",),
            trials_per_run_second=0.27,
            why=(
                "paper-scale ProBFT with no faults on the columnar stack: "
                "per-seed keygen, VRF proves and batched fan-outs dominate"
            ),
        ),
        ConsensusWorkload(
            name="consensus-faults",
            n=100,
            f=19,
            latency="uniform",
            adversaries=("crash", "equivocation", "silent"),
            trials_per_run_second=0.8,
            why=(
                "view changes with and without prepared certificates under "
                "non-constant latency: certificate validation and verify"
            ),
        ),
        ServingWorkload(
            name="serve-open",
            n=16,
            num_clients=300,
            requests_per_client=2,
            offered_rate=8.0,
            max_time=2000.0,
            trials_per_run_second=0.24,
            why=(
                "open-loop SMR serving at n=16 with rotating leaders: dense "
                "per-slot replicas, point-to-point sends and the smr layer"
            ),
        ),
    )
}


def tiny(workload):
    """A seconds-sized variant of ``workload`` for the benchmark's own tests."""
    if isinstance(workload, ConsensusWorkload):
        return replace(workload, n=20, f=3)
    return replace(
        workload, n=9, num_clients=12, requests_per_client=2, max_time=400.0
    )
