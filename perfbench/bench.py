"""Run one workload: seeds, set-up, timed trials, checks, metrics.

Run discipline (see ``perfbench/README.md`` for the reasons):

* timed seeds come from ``--seed`` and never equal a warm-up seed, so no
  timed trial replays a seed whose keys and VRF proofs are already pooled;
* ``gc.collect()`` runs before every trial, outside its timed region;
* a run holds a fixed number of trials, computed from ``--seconds``, never
  from measured speed, because peak memory grows with every fresh seed and
  percentiles depend on the count;
* each metric is computed per trial and summarized per fault cell with
  the workload's ``location`` (mean for consensus, median for serving),
  and cells combine weighted by their trial counts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.crypto.context import clear_crypto_pool

from . import tracer as tracing
from .workloads import ServingWorkload, TrialOutcome, percentile

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench-state"

#: Set-up repetitions in an untraced run; ``setup_s`` reports the median.
SETUP_REPS = 3

#: Seconds the reference loop takes at reference speed: its median on the
#: 2-vCPU x86_64 VM (Python 3.11) where the benchmark was defined.
REFERENCE_LOOP_S = 0.021


# ----------------------------------------------------------------------
# Seeds and run size
# ----------------------------------------------------------------------
def _seed(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")


def timed_seed(workload: str, run_seed: int, index: int) -> int:
    """Seeds of timed trials: ``[0, 2**31)``."""
    return _seed(f"perfbench/timed/{workload}/{run_seed}/{index}") & 0x7FFFFFFF


def warmup_seed(workload: str, rep: int) -> int:
    """Seeds of set-up trials: ``[2**31, 2**32)``, disjoint from timed ones,
    and the same in every run so set-up does the same work each time."""
    return _seed(f"perfbench/warmup/{workload}/{rep}") | 0x80000000


def trial_count(workload, seconds: float) -> int:
    """Trials in one run: a whole number of rounds over the workload's cells."""
    cells = len(workload.cells)
    return cells * max(1, round(seconds * workload.trials_per_run_second / cells))


def plan(workload, run_seed: int, count: int) -> List[Tuple[str, int]]:
    cells = workload.cells
    return [
        (cells[i % len(cells)], timed_seed(workload.name, run_seed, i))
        for i in range(count)
    ]


def _reference_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def reference_speed(before: float, after: float) -> float:
    """Machine speed relative to reference speed, from reference-loop times
    taken just before and just after a trial."""
    return REFERENCE_LOOP_S / ((before + after) / 2)


def run_pass(workload, trials: Sequence[Tuple[str, int]]) -> List[TrialOutcome]:
    """Run ``trials`` in order, timing the reference loop around each one.

    The CPU speed of a shared machine drifts by ±20% over minutes, which
    would swamp the rates' bounds.  Scaling each trial's wall time by the
    speed measured around it removes most of that drift (seven happy runs:
    run-to-run spread 0.28 unscaled, 0.11 scaled); the report keeps the
    unscaled rates.
    """
    outcomes = []
    for cell, seed in trials:
        gc.collect()
        before = _reference_loop()
        outcome = workload.run_trial(cell, seed)
        after = _reference_loop()
        outcome.reference_s = (before, after)
        outcome.speed = reference_speed(before, after)
        outcomes.append(outcome)
    return outcomes


def set_up(workload, reps: int) -> List[float]:
    """Run ``reps`` untimed warm-up trials; returns each one's wall time in
    reference-speed seconds (as ``run_pass`` scales trials)."""
    walls = []
    for rep in range(reps):
        cell = workload.cells[rep % len(workload.cells)]
        gc.collect()
        before = _reference_loop()
        start = time.perf_counter()
        workload.run_trial(cell, warmup_seed(workload.name, rep))
        wall = time.perf_counter() - start
        walls.append(wall * reference_speed(before, _reference_loop()))
    return walls


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def code_id() -> str:
    """Digest of the program and benchmark sources a run executes."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(
        pathlib.Path(__file__).parent.glob("*.py")
    )
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprints(workload: str, outcomes: Sequence[TrialOutcome]) -> List[str]:
    """Compare each seed's deterministic outputs with earlier runs of the
    same code in this checkout; record new seeds.  Returns mismatches."""
    path = STATE_DIR / code_id() / f"{workload}.json"
    known: Dict[str, str] = {}
    if path.exists():
        known = json.loads(path.read_text())
    mismatches = []
    for outcome in outcomes:
        key = f"{outcome.cell}:{outcome.seed}"
        fingerprint = outcome.fingerprint()
        if known.setdefault(key, fingerprint) != fingerprint:
            mismatches.append(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    return mismatches


def failed_checks(outcomes: Sequence[TrialOutcome]) -> List[str]:
    return [
        f"{o.cell}:{o.seed}:{name}"
        for o in outcomes
        for name, ok in o.checks.items()
        if not ok
    ]


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def _by_cell(outcomes: Sequence[TrialOutcome]) -> Dict[str, List[TrialOutcome]]:
    cells: Dict[str, List[TrialOutcome]] = {}
    for outcome in outcomes:
        cells.setdefault(outcome.cell, []).append(outcome)
    return cells


def cell_weighted(
    outcomes: Sequence[TrialOutcome],
    value: Callable[[TrialOutcome], float],
    location: Callable,
) -> float:
    """``location`` of ``value`` within each cell, averaged with trial-count
    weights."""
    total = weight = 0
    for group in _by_cell(outcomes).values():
        total += len(group) * location([value(o) for o in group])
        weight += len(group)
    return total / weight


def scaled_wall(outcome: TrialOutcome) -> float:
    """The trial's wall time in reference-speed seconds."""
    return outcome.wall_s * outcome.speed


def rate(
    workload,
    outcomes: Sequence[TrialOutcome],
    work: Callable[[TrialOutcome], float],
    per: Callable[[TrialOutcome], float] = scaled_wall,
) -> float:
    """``work`` per unit of ``per``, each summarized per cell with the
    workload's ``location``."""
    return cell_weighted(outcomes, work, workload.location) / cell_weighted(
        outcomes, per, workload.location
    )


def end_to_end(
    workload,
    outcomes: Sequence[TrialOutcome],
    setup_s: float,
    peak_rss_mb: float,
) -> Dict[str, Tuple[float, str]]:
    def summary(value: Callable[[TrialOutcome], float]) -> float:
        return cell_weighted(outcomes, value, workload.location)

    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (rate(workload, outcomes, lambda o: 1.0), "trials/s"),
        "req_per_s": (rate(workload, outcomes, lambda o: o.completed), "req/s"),
        "msgs_per_decision": (
            rate(
                workload,
                outcomes,
                lambda o: o.protocol_msgs,
                per=lambda o: o.decisions,
            ),
            "msgs",
        ),
        "decide_time_sim_p50": (summary(lambda o: o.decide_time), "sim_units"),
        "req_latency_sim_p50": (
            summary(lambda o: percentile(o.latencies, 50)),
            "sim_units",
        ),
        "req_latency_sim_p99": (
            summary(lambda o: percentile(o.latencies, 99)),
            "sim_units",
        ),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def fail_shares(outcomes: Sequence[TrialOutcome]) -> Dict[str, float]:
    requests = sum(o.requests for o in outcomes)
    return {
        "trial_fail_share": sum(o.completed < o.requests for o in outcomes)
        / len(outcomes),
        "req_fail_share": sum(o.requests - o.completed for o in outcomes) / requests,
    }


# ----------------------------------------------------------------------
# Per-layer metrics (traced run)
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    outcomes: Sequence[TrialOutcome],
    tracer: tracing.Tracer,
    untraced_wall_s: float,
) -> Dict[str, Tuple[float, str]]:
    trials = len(outcomes)
    t = tracer

    def layer_sum(key: str) -> float:
        return sum(o.layer.get(key, 0) for o in outcomes)

    def count(value: float) -> Tuple[float, str]:
        return (value / trials, "count/trial")

    def seconds(value: float) -> Tuple[float, str]:
        return (value / trials, "s/trial")

    def ratio(num: float, den: float) -> Tuple[float, str]:
        return (_ratio(num, den), "ratio")

    traced_wall = sum(o.wall_s for o in outcomes)
    verify_hits = layer_sum("crypto.verify_memo_hits")
    prove_hits = layer_sum("crypto.vrf_prove_memo_hits")
    shares = fail_shares(outcomes)
    return {
        "harness.build_s": seconds(t.total_s("harness.build")),
        "harness.trial_fail_share": (shares["trial_fail_share"], "ratio"),
        "harness.req_fail_share": (shares["req_fail_share"], "ratio"),
        "simulator.self_s": seconds(t.self_s("simulator.run")),
        "simulator.events": count(layer_sum("simulator.events")),
        "network.send_calls": count(t.calls("network.send")),
        "network.send_self_s": seconds(t.self_s("network.send")),
        "network.multicast_calls": count(t.calls("network.multicast")),
        "network.multicast_self_s": seconds(t.self_s("network.multicast")),
        "network.msgs_sent": count(layer_sum("network.msgs_sent")),
        "network.deliveries": count(layer_sum("network.deliveries")),
        "columnar.dispatch_calls": count(t.calls("columnar.dispatch")),
        "columnar.dispatch_self_s": seconds(t.self_s("columnar.dispatch")),
        "columnar.recipients_per_call": (
            _ratio(
                t.counter("columnar.dispatch", "recipients"),
                t.calls("columnar.dispatch"),
            ),
            "count/call",
        ),
        "columnar.decline_ratio": ratio(
            t.counter("columnar.dispatch", "declined"), t.calls("columnar.dispatch")
        ),
        "replica.on_message_calls": count(t.calls("replica.on_message")),
        "replica.on_message_self_s": seconds(t.self_s("replica.on_message")),
        "predicates.valid_new_leader_calls": count(
            t.calls("predicates.valid_new_leader")
        ),
        "predicates.safe_proposal_calls": count(t.calls("predicates.safe_proposal")),
        "predicates.self_s": seconds(
            t.self_s("predicates.valid_new_leader")
            + t.self_s("predicates.safe_proposal")
        ),
        "quorum.cert_validations": count(
            t.calls("quorum.validate_prepared_certificate")
        ),
        "quorum.cert_validate_self_s": seconds(
            t.self_s("quorum.validate_prepared_certificate")
        ),
        "quorum.cert_distinct_ratio": ratio(
            t.counter("quorum.validate_prepared_certificate", "distinct"),
            t.calls("quorum.validate_prepared_certificate"),
        ),
        "crypto.sign_calls": count(t.calls("crypto.sign")),
        "crypto.sign_self_s": seconds(t.self_s("crypto.sign")),
        "crypto.verify_calls": count(t.calls("crypto.verify")),
        "crypto.verify_self_s": seconds(t.self_s("crypto.verify")),
        "crypto.verify_rejects": count(t.counter("crypto.verify", "false")),
        "crypto.verify_memo_hit_ratio": ratio(
            verify_hits, verify_hits + layer_sum("crypto.verify_memo_misses")
        ),
        "crypto.vrf_prove_calls": count(t.calls("crypto.vrf_prove")),
        "crypto.vrf_prove_self_s": seconds(t.self_s("crypto.vrf_prove")),
        "crypto.vrf_prove_memo_hit_ratio": ratio(
            prove_hits, prove_hits + layer_sum("crypto.vrf_prove_memo_misses")
        ),
        "crypto.vrf_verify_calls": count(t.calls("crypto.vrf_verify")),
        "crypto.vrf_verify_self_s": seconds(t.self_s("crypto.vrf_verify")),
        "crypto.memo_evictions": count(layer_sum("crypto.memo_evictions")),
        "crypto.pool_misses": count(t.counter("crypto.pooled", "misses")),
        "crypto.pool_build_s": seconds(t.counter("crypto.pooled", "build_s")),
        "sync.view_changes": count(layer_sum("sync.view_changes")),
        "sync.wish_msgs": count(t.calls("sync.on_wish")),
        "smr.submit_calls": count(t.calls("smr.submit")),
        "smr.submit_refused_ratio": ratio(
            t.counter("smr.submit", "false"), t.calls("smr.submit")
        ),
        "smr.replica_on_message_self_s": seconds(t.self_s("smr.replica_on_message")),
        "smr.log_record_calls": count(t.calls("smr.log_record")),
        "smr.log_record_self_s": seconds(t.self_s("smr.log_record")),
        "smr.requests_per_slot": ratio(
            layer_sum("smr.requests_ordered"), layer_sum("smr.slots_applied")
        ),
        "trace.overhead_s": seconds(traced_wall - untraced_wall_s),
        "trace.overhead_ratio": ratio(traced_wall - untraced_wall_s, untraced_wall_s),
    }


# ----------------------------------------------------------------------
# Provenance and the run itself
# ----------------------------------------------------------------------
def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload, run_seed: int, seconds: float, trace: bool) -> Dict:
    import numpy

    return {
        "git_commit": _git_commit(),
        "code_id": code_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": workload.name,
        "seed": run_seed,
        "seconds": seconds,
        "trace": trace,
    }


def _sample_counts(outcomes: Sequence[TrialOutcome]) -> Dict[str, object]:
    sizes = [len(o.latencies) for o in outcomes]
    return {
        "decide_time_sim_p50": {"trials": len(outcomes)},
        "req_latency_sim": {
            "trials": len(outcomes),
            "latencies_per_trial_min": min(sizes),
            "latencies_per_trial_median": statistics.median(sizes),
            "latencies_total": sum(sizes),
        },
        "cells": {c: len(g) for c, g in _by_cell(outcomes).items()},
    }


def _serving_report(workload, outcomes: Sequence[TrialOutcome]) -> Dict[str, object]:
    if not isinstance(workload, ServingWorkload):
        return {}
    return {
        "nominal_rate_req_per_sim_s": workload.offered_rate,
        "realized_rate_req_per_sim_s": statistics.median(
            o.info["realized_rate"] for o in outcomes
        ),
        "retries": sum(o.info["retries"] for o in outcomes),
        "recovered": sum(o.info["recovered"] for o in outcomes),
        "issued": sum(o.info["issued"] for o in outcomes),
        "program_timed_out": sum(o.info["timed_out"] for o in outcomes),
        "snapshots_consistent_false_trials": sum(
            not o.info["snapshots_consistent"] for o in outcomes
        ),
        "per_trial_live_completed": [o.completed for o in outcomes],
    }


def run_benchmark(
    workload,
    run_seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
) -> Dict[str, object]:
    """One benchmark run; returns the result line and the full report."""
    count = trial_count(workload, seconds)
    if trace:
        # Half-size passes: the traced pass repeats the untraced pass's
        # seeds (crypto pool cleared in between, so both start cold), which
        # gives the tracing overhead on identical work.
        count = len(workload.cells) * max(1, -(-count // (2 * len(workload.cells))))
    trials = plan(workload, run_seed, count)
    report: Dict[str, object] = {
        "provenance": provenance(workload, run_seed, seconds, trace),
    }
    setup_walls = set_up(workload, 1 if trace else SETUP_REPS)
    report["setup"] = {
        "import_s": import_s,
        "warmup_walls_s": setup_walls,
        "warmup_seeds": [
            warmup_seed(workload.name, rep) for rep in range(len(setup_walls))
        ],
    }
    outcomes = run_pass(workload, trials)
    problems = failed_checks(outcomes)
    problems += [f"nondeterministic:{k}" for k in check_fingerprints(workload.name, outcomes)]
    if trace:
        untraced_wall = sum(o.wall_s for o in outcomes)
        clear_crypto_pool()
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced = run_pass(workload, trials)
        problems += failed_checks(traced)
        problems += [
            f"trace-changed-outputs:{a.cell}:{a.seed}"
            for a, b in zip(outcomes, traced)
            if a.fingerprint() != b.fingerprint()
        ]
        metrics = per_layer(traced, tracer, untraced_wall)
        report["queue_modes"] = sorted({o.info["queue_mode"] for o in traced})
        report["spans"] = tracer.summary()
        report["span_edges"] = {
            f"{a} -> {b}": n for (a, b), n in sorted(tracer.edges.items())
        }
        outcomes = traced
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(
            workload, outcomes, import_s + statistics.median(setup_walls), peak_rss_mb
        )
        report["queue_modes"] = sorted({o.info["queue_mode"] for o in outcomes})
    report["unscaled"] = {
        "trials_per_wall_s": rate(
            workload, outcomes, lambda o: 1.0, per=lambda o: o.wall_s
        ),
        "req_per_wall_s": rate(
            workload, outcomes, lambda o: o.completed, per=lambda o: o.wall_s
        ),
    }
    report["samples"] = _sample_counts(outcomes)
    report["fail_shares"] = fail_shares(outcomes)
    report["serving"] = _serving_report(workload, outcomes)
    report["trials"] = [
        {
            "cell": o.cell,
            "seed": o.seed,
            "wall_s": o.wall_s,
            "speed": o.speed,
            "reference_s": o.reference_s,
            "view_changes": o.layer["sync.view_changes"],
            "last_decision_time": o.info.get("last_decision_time"),
            "completed": o.completed,
            "requests": o.requests,
        }
        for o in outcomes
    ]
    report["problems"] = problems
    attempted = sum(o.requests for o in outcomes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(o.completed for o in outcomes),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return {"result": result, "report": report}


def print_run(run: Dict[str, object]) -> None:
    """Human table, the full report, then the result as the last line."""
    result = run["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    for problem in run["report"]["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("report " + json.dumps(run["report"], sort_keys=True))
    print(json.dumps(result), flush=True)
