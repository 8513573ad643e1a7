"""Golden seed-stability regressions.

These pin exact per-seed outcomes — the engine's seed derivation, one full
ProBFT run, and small Monte-Carlo estimates — so that refactors of the
experiment engine or the deployment wiring cannot silently reorder RNG
streams.  If one of these fails after an intentional RNG change, re-record
the golden values *in the same commit* and say so in the commit message.
"""

from __future__ import annotations

import pytest

from repro.config import ProtocolConfig
from repro.harness.parallel import derive_seed
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import DeploymentSpec, run_trial
from repro.montecarlo.experiments import (
    estimate_prepare_quorum,
    estimate_termination,
)


class TestSeedDerivationGoldens:
    """The engine's counter-based splitter is a frozen function."""

    def test_first_child_seeds_of_master_zero(self):
        assert [derive_seed(0, i) for i in range(4)] == [
            12035550249420947055,
            12935080325729570654,
            7141179953334974231,
            12108695660851890438,
        ]

    def test_nonzero_master(self):
        assert derive_seed(123, 0) == 16163597885971035396


#: (protocol, adversary) -> (decided, decided value, max view, last decision
#: time, messages by type) for seed 11 of the n=10 uniform-latency cell.
#: ``crash`` loses the last f replicas at t=1.5; ``silent`` forces one view
#: change.
FAULT_CELL_GOLDENS = {
    ("probft", "crash"): (
        8, b"value-0", 1, 3.4704985116709555,
        {"Commit": 72, "Prepare": 90, "Propose": 9},
    ),
    ("pbft", "crash"): (
        8, b"value-0", 1, 3.482145155966837,
        {"PbftCommit": 72, "PbftPrepare": 90, "PbftPropose": 9},
    ),
    ("hotstuff", "crash"): (
        8, b"value-0", 1, 10.537675121483336,
        {"HsNewView": 9, "HsProposal": 36, "HsVote": 21},
    ),
    ("probft", "silent"): (
        9, b"value-1", 2, 35.66094191724235,
        {"Commit": 81, "NewLeader": 8, "Prepare": 81, "Propose": 9,
         "Wish": 81},
    ),
    ("pbft", "silent"): (
        9, b"value-1", 2, 35.832045497057955,
        {"PbftCommit": 81, "PbftNewLeader": 8, "PbftPrepare": 81,
         "PbftPropose": 9, "Wish": 81},
    ),
    ("hotstuff", "silent"): (
        9, b"value-1", 2, 41.38490797354336,
        {"HsNewView": 17, "HsProposal": 36, "HsVote": 24, "Wish": 81},
    ),
}


class TestProtocolRunGolden:
    """Small runs, fully pinned: decisions, views, timing, traffic."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    @pytest.mark.parametrize("protocol,adversary", sorted(FAULT_CELL_GOLDENS))
    def test_fault_cell_seed11(self, protocol, adversary, sparse):
        cell = MatrixCell(
            protocol=protocol, adversary=adversary, latency="uniform", n=10, f=2
        )
        spec = cell_deployment_spec(cell, seed=11, max_time=300.0)
        result = run_trial(spec.with_sparse(sparse))
        decided, value, view, last, by_type = FAULT_CELL_GOLDENS[
            (protocol, adversary)
        ]
        assert result.decided == result.n_correct == decided
        assert result.agreement_ok
        assert result.decided_values == (value,)
        assert result.decision_views == (view,)
        assert result.max_view == view
        assert result.last_decision_time == last
        assert result.sim_time == last
        assert result.messages_by_type == by_type
        assert result.total_messages == sum(by_type.values())

    def test_probft_n8_seed42(self):
        result = run_trial(
            DeploymentSpec(
                protocol="probft",
                config=ProtocolConfig(n=8, f=1),
                seed=42,
                max_time=5000,
            )
        )
        assert result.decided == 8
        assert result.all_decided and result.agreement_ok
        assert result.decided_values == (b"value-0",)
        assert result.decision_views == (1,)
        assert result.max_view == 1
        assert result.last_decision_time == 3.0
        assert result.total_messages == 119
        assert result.messages_by_type == {
            "Commit": 56,
            "Prepare": 56,
            "Propose": 7,
        }


class TestEstimatorGoldens:
    """Sampling-level estimates are exact integers under a fixed seed."""

    def test_termination_golden_counts(self):
        result = estimate_termination(36, 7, 1.7, trials=16, seed=123)
        assert result.estimates["per_replica_decides"].successes == 16
        assert result.estimates["all_correct_decide"].successes == 7
        assert result.mean_prepared_fraction == 0.9849137931034483

    def test_prepare_quorum_golden_counts(self):
        result = estimate_prepare_quorum(36, 7, 1.7, trials=16, seed=9)
        assert result.estimates["per_replica_quorum"].successes == 16
        assert result.estimates["all_correct_quorum"].successes == 12

    def test_golden_counts_survive_parallel_execution(self):
        result = estimate_termination(36, 7, 1.7, trials=16, seed=123, workers=2)
        assert result.estimates["per_replica_decides"].successes == 16
        assert result.estimates["all_correct_decide"].successes == 7
