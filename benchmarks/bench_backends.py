"""BENCH-BACKENDS — one Figure-5 protocol cell on the serial and pool backends.

The execution-backend seam promises two things: **bit-identical results**
on both backends, and wall-clock that scales with the hardware.  This bench
pins both on the smallest expensive cell we have — the full discrete-event
simulation of the Figure-4c optimal equivocation attack at ``n = 20``
(each trial is a whole protocol run; this is exactly the workload the
Monte-Carlo Figure-5 estimates are made of) — and records the per-backend
wall-clock in ``BENCH_backends.json`` at the repo root, so successive
changes can track how the execution layer's overhead and scaling evolve.

Each backend is timed ``SAMPLES`` times in alternating order (serial
first in even rounds, pool first in odd ones), and the artifact carries the
median and interquartile range of each backend's samples plus the python,
numpy and core-count environment: back-to-back runs of one config differ
by tens of percent, so a single shot says little.

On a multi-core machine the pool median must beat the serial median on
this cell (the trials are independent CPU-bound simulations); on a
single-core machine (some CI sandboxes) no process fan-out can win, so the
bench records the measurement and asserts only bit-identity.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import time

import numpy
import pytest

from repro.config import ProtocolConfig
from repro.crypto.context import clear_crypto_pool
from repro.harness.parallel import ExperimentEngine, workers_from_env
from repro.harness.tables import render_table
from repro.montecarlo.experiments import _protocol_agreement_trial

#: Figure-5 protocol cell: full simulation, optimal split attack, f/n = 0.2.
N = 20
TRIALS = 16
MASTER_SEED = 2024
MAX_TIME = 5000.0
BACKEND_NAMES = ("serial", "pool")
#: Timed passes per backend, alternating which backend goes first.
SAMPLES = 5

#: Workers for the pool backend; 0 = saturate (cpu count).
WORKERS = workers_from_env("REPRO_BENCH_WORKERS", default=0) or (
    os.cpu_count() or 1
)

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_backends.json"


def time_backend(name: str) -> tuple:
    """Wall-clock one full pass of the cell's trials on one backend.

    The per-process crypto pool is cleared first so every backend pays the
    same warm-up (pool workers fork *after* the clear and warm their own).
    """
    config = ProtocolConfig(n=N, f=N // 5)
    clear_crypto_pool()
    engine = ExperimentEngine(workers=WORKERS, backend=name)
    start = time.perf_counter()
    results = engine.run_trials(
        _protocol_agreement_trial,
        TRIALS,
        master_seed=MASTER_SEED,
        params=(config, MAX_TIME),
    )
    elapsed = time.perf_counter() - start
    engine.close()
    return results, elapsed


def median_iqr(samples) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_s": round(median, 3),
        "iqr_s": round(q3 - q1, 3),
        "samples_s": [round(s, 3) for s in samples],
    }


def compute_backend_matrix():
    # An untimed serial pass: the identity reference, and a warm-up so the
    # first timed sample isn't the only one paying import/OS-cache costs.
    reference, _ = time_backend("serial")
    seconds = {name: [] for name in BACKEND_NAMES}
    identical = {name: True for name in BACKEND_NAMES}
    for round_index in range(SAMPLES):
        order = BACKEND_NAMES if round_index % 2 == 0 else BACKEND_NAMES[::-1]
        for name in order:
            results, elapsed = time_backend(name)
            seconds[name].append(elapsed)
            identical[name] = identical[name] and results == reference
    rows = {
        name: {**median_iqr(seconds[name]), "identical_to_serial": identical[name]}
        for name in BACKEND_NAMES
    }
    serial_median = rows["serial"]["median_s"]
    for row in rows.values():
        row["speedup_vs_serial"] = round(serial_median / row["median_s"], 2)
    return {
        "bench": "fig5-protocol-cell",
        "n": N,
        "f": N // 5,
        "trials": TRIALS,
        "samples": SAMPLES,
        "workers": WORKERS,
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "violations": sum(v for v, _ in reference),
        "backends": rows,
        "fastest": min(BACKEND_NAMES, key=lambda k: rows[k]["median_s"]),
    }


@pytest.mark.benchmark(group="backends")
def test_bench_backends(benchmark, report):
    row = benchmark.pedantic(compute_backend_matrix, rounds=1, iterations=1)
    ARTIFACT.write_text(json.dumps(row, indent=2) + "\n")
    table = [
        [
            name,
            row["backends"][name]["median_s"],
            row["backends"][name]["iqr_s"],
            row["backends"][name]["speedup_vs_serial"],
            row["backends"][name]["identical_to_serial"],
        ]
        for name in BACKEND_NAMES
    ]
    report(
        render_table(
            ["backend", "median s", "IQR s", "speedup vs serial", "identical"],
            table,
            title=(
                f"BENCH-BACKENDS: Figure-5 protocol cell (n={N}, optimal "
                f"split attack, {TRIALS} trials, {SAMPLES} alternating "
                f"samples, workers={WORKERS}, cpus={row['cpu_count']}, "
                f"python {row['python']}, numpy {row['numpy']})\n"
                f"wrote {ARTIFACT.name}; results must be bit-identical on "
                "both backends"
            ),
        )
    )
    # The seam's hard guarantee: identical results on every sample.
    for name in BACKEND_NAMES:
        assert row["backends"][name]["identical_to_serial"], name
    # Protocol-level claim: equivocation detection keeps agreement intact.
    assert row["violations"] == 0
    # The scaling claim needs hardware to scale onto: with 2+ cores the
    # pool must beat serial on this CPU-bound cell, median against median.
    if row["cpu_count"] >= 2 and WORKERS >= 2:
        assert (
            row["backends"]["pool"]["median_s"]
            < row["backends"]["serial"]["median_s"]
        )
