"""Property-based tests for the streaming accumulators.

``run_matrix`` and the estimators never materialize trial rows: they fold
each result into ``Welford`` / ``StreamingProportion`` /
``CellAccumulator`` as it arrives.  That is only sound if the streamed fold
equals the batch computation over the same observations:

* **Welford == batch** — the running mean is bit-identical to
  :func:`~repro.harness.metrics.mean` (same left-fold summation) and the
  variance matches :func:`~repro.harness.metrics.stddev` squared;
* **StreamingProportion == ProportionEstimate** — point estimate and
  Wilson interval are exact;
* **CellAccumulator == batch row aggregates** — every summary column
  equals the batch helper applied to the column of rows;
* **LatencyAccumulator == batch latencies** — completion counts, mean and
  percentiles equal the batch helpers over the completed requests,
  whatever the interleaving of incomplete (``None``) requests.

Each property is checked with hypothesis when it is installed and through
seeded randomized sweeps otherwise (CI installs only requirements.txt, so
the seeded path is the floor).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.harness.metrics import (
    LatencyAccumulator,
    ProportionEstimate,
    StreamingProportion,
    Welford,
    mean,
    percentile,
    stddev,
    wilson_interval,
)
from repro.harness.registry import CellAccumulator, MatrixCell

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - environment dependent
    HAVE_HYPOTHESIS = False

CELL = MatrixCell(
    protocol="probft", adversary="silent", latency="constant", n=8, f=2
)


# ----------------------------------------------------------------------
# Shared generators and property checks (both drivers funnel through these)
# ----------------------------------------------------------------------


def check_welford_matches_batch(values):
    acc = Welford().extend(values)
    assert acc.count == len(values)
    if not values:
        assert math.isnan(acc.mean)
        return
    assert acc.mean == mean(values)  # bit-identical, not approx
    assert acc.stddev == pytest.approx(stddev(values), rel=1e-6, abs=1e-6)


def check_proportion_matches_batch(outcomes):
    acc = StreamingProportion()
    for outcome in outcomes:
        acc.add(outcome)
    batch = ProportionEstimate(sum(outcomes), len(outcomes))
    assert (acc.successes, acc.trials) == (batch.successes, batch.trials)
    assert acc.interval == batch.interval  # exact, Wilson included
    low, high = acc.interval
    assert acc.interval_width == high - low
    assert 0.0 <= low <= high <= 1.0


def make_row(rng: random.Random) -> dict:
    """A synthetic trial row of the shape ``run_matrix_cell`` emits."""
    n_correct = rng.randint(1, 8)
    decided = rng.randint(0, n_correct)
    return {
        "decided": decided,
        "n_correct": n_correct,
        "all_decided": decided == n_correct,
        "agreement_ok": rng.random() < 0.8,
        "max_view": rng.randint(1, 5),
        "last_decision_time": rng.uniform(0.0, 64.0),
        "total_messages": rng.randint(0, 512),
        "total_bytes": rng.randint(0, 4096),
    }


def check_cell_matches_batch(rows):
    acc = CellAccumulator(CELL)
    for row in rows:
        acc.add(row)
    summary = acc.summary()
    assert summary["trials"] == acc.trials == len(rows)
    if not rows:
        return

    def column(key):
        return [float(row[key]) for row in rows]

    agreement = [1.0 if row["agreement_ok"] else 0.0 for row in rows]
    low, high = wilson_interval(int(sum(agreement)), len(rows))
    assert summary["agreement_rate"] == mean(agreement)
    assert summary["agreement_ci_low"] == round(low, 4)
    assert summary["agreement_ci_high"] == round(high, 4)
    assert summary["decide_rate"] == round(
        mean([row["decided"] / row["n_correct"] for row in rows]), 4
    )
    assert summary["mean_max_view"] == mean(column("max_view"))
    assert summary["mean_decision_time"] == round(
        mean(column("last_decision_time")), 3
    )
    assert summary["mean_messages"] == round(mean(column("total_messages")), 1)
    assert summary["mean_bytes"] == round(mean(column("total_bytes")), 1)


def check_latency_matches_batch(requests):
    acc = LatencyAccumulator().extend(requests)
    completed = [latency for latency in requests if latency is not None]
    summary = acc.summary()
    assert summary["completed"] == acc.completed == len(completed)
    assert summary["incomplete"] == len(requests) - len(completed)
    assert acc.total == len(requests)
    if not completed:
        assert summary["mean_latency"] is None
        assert summary["p50_latency"] is None
        return
    assert summary["mean_latency"] == sum(completed) / len(completed)
    assert summary["mean_latency"] == pytest.approx(mean(completed))
    for key, q in (("p50_latency", 50), ("p99_latency", 99), ("p999_latency", 99.9)):
        assert summary[key] == percentile(completed, q)


# ----------------------------------------------------------------------
# Seeded randomized driver (always runs; the CI floor)
# ----------------------------------------------------------------------


class TestSeededRandomized:
    def test_welford_matches_batch_integers(self):
        rng = random.Random(0xA1)
        for _ in range(200):
            values = [float(rng.randint(-100, 100)) for _ in range(rng.randint(0, 48))]
            check_welford_matches_batch(values)

    def test_welford_matches_batch_floats(self):
        rng = random.Random(0xA2)
        for _ in range(200):
            values = [rng.uniform(-1e6, 1e6) for _ in range(rng.randint(0, 48))]
            check_welford_matches_batch(values)

    def test_proportion_matches_batch(self):
        rng = random.Random(0xB1)
        for _ in range(200):
            outcomes = [rng.random() < 0.7 for _ in range(rng.randint(0, 64))]
            check_proportion_matches_batch(outcomes)

    def test_cell_accumulator_matches_batch(self):
        rng = random.Random(0xC1)
        for _ in range(60):
            rows = [make_row(rng) for _ in range(rng.randint(0, 24))]
            check_cell_matches_batch(rows)

    def test_latency_accumulator_matches_batch(self):
        rng = random.Random(0xD1)
        for _ in range(200):
            requests = [
                None if rng.random() < 0.2 else rng.uniform(0.0, 500.0)
                for _ in range(rng.randint(0, 64))
            ]
            check_latency_matches_batch(requests)


# ----------------------------------------------------------------------
# Hypothesis driver (richer search when the library is available)
# ----------------------------------------------------------------------

if HAVE_HYPOTHESIS:
    int_values = st.lists(
        st.integers(-100, 100).map(float), min_size=0, max_size=48
    )
    float_values = st.lists(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        ),
        min_size=0,
        max_size=48,
    )
    outcome_lists = st.lists(st.booleans(), min_size=0, max_size=64)
    request_lists = st.lists(
        st.one_of(
            st.none(),
            st.floats(
                min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
            ),
        ),
        min_size=0,
        max_size=64,
    )

    class TestHypothesis:
        @settings(max_examples=120, deadline=None)
        @given(values=int_values)
        def test_welford_matches_batch_integers(self, values):
            check_welford_matches_batch(values)

        @settings(max_examples=120, deadline=None)
        @given(values=float_values)
        def test_welford_matches_batch_floats(self, values):
            check_welford_matches_batch(values)

        @settings(max_examples=120, deadline=None)
        @given(outcomes=outcome_lists)
        def test_proportion_matches_batch(self, outcomes):
            check_proportion_matches_batch(outcomes)

        @settings(max_examples=40, deadline=None)
        @given(seed=st.integers(0, 2**32 - 1), length=st.integers(0, 24))
        def test_cell_accumulator_matches_batch(self, seed, length):
            rng = random.Random(seed)
            check_cell_matches_batch([make_row(rng) for _ in range(length)])

        @settings(max_examples=120, deadline=None)
        @given(requests=request_lists)
        def test_latency_accumulator_matches_batch(self, requests):
            check_latency_matches_batch(requests)
