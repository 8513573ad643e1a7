"""Golden-seed equivalence of sparse delivery against the dense reference.

The sparse layer's contract (see :mod:`repro.net.sparse`) is that a run
with a delivery policy attached is *bit-identical* to the dense run for
the same :class:`~repro.harness.trial.DeploymentSpec` seed: same
decisions, same views, same message statistics, same simulated time.
These tests replay every protocol x adversary cell of the harness matrix
both ways and compare the full :class:`~repro.harness.trial.RunResult`.

Each comparison builds a *fresh* spec per run via
:func:`~repro.harness.registry.cell_deployment_spec`: a DeploymentSpec
carries seeded latency/chaos objects whose RNG streams advance as the
simulation runs, so replaying a used spec would compare against an
advanced stream, not against dense mode.
"""

from __future__ import annotations

import pytest

from repro.harness.registry import ADVERSARIES, MatrixCell, cell_deployment_spec
from repro.harness.trial import run_trial
from repro.net import SparseDeliveryPolicy

PROTOCOLS = ("probft", "pbft", "hotstuff")
MAX_TIME = 600.0


def _supported_cells(latency: str):
    for protocol in PROTOCOLS:
        for adversary in ADVERSARIES:
            cell = MatrixCell(
                protocol=protocol,
                adversary=adversary,
                latency=latency,
                n=14,
                f=2,
                track_bytes=True,
            )
            if cell.supported:
                yield cell


def _run_pair(cell: MatrixCell, seed: int):
    dense = run_trial(cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME))
    sparse = run_trial(
        cell_deployment_spec(cell, seed=seed, max_time=MAX_TIME).with_sparse()
    )
    return dense, sparse


class TestGoldenSeedEquivalence:
    @pytest.mark.parametrize("latency", ["constant", "uniform", "pre-gst-chaos"])
    def test_every_cell_bit_identical(self, latency):
        """Dense and sparse produce equal RunResults on every matrix cell.

        Covers suppression-sensitive adversaries explicitly: equivocation
        (the view-flagging path), flooding (forged statements must NOT
        flag views), duplication (per-target duplicate draws), and the
        targeted scheduler.
        """
        checked = 0
        for cell in _supported_cells(latency):
            for seed in (0, 1):
                dense, sparse = _run_pair(cell, seed)
                assert dense == sparse, (cell.label, seed)
                checked += 1
        assert checked > 0

    def test_spec_sparse_flag_round_trip(self):
        cell = MatrixCell(
            protocol="probft",
            adversary="none",
            latency="constant",
            n=14,
            f=2,
            track_bytes=False,
        )
        spec = cell_deployment_spec(cell, seed=0, max_time=MAX_TIME)
        assert spec.sparse is False
        assert spec.with_sparse().sparse is True
        assert spec.with_sparse().with_sparse(False).sparse is False
        # with_sparse is non-destructive.
        assert spec.sparse is False

    def test_sparse_deployment_has_policy_attached(self):
        cell = MatrixCell(
            protocol="probft",
            adversary="none",
            latency="constant",
            n=14,
            f=2,
            track_bytes=False,
        )
        spec = cell_deployment_spec(cell, seed=0, max_time=MAX_TIME)
        assert spec.build().network.delivery_policy is None
        policy = spec.with_sparse().build().network.delivery_policy
        assert isinstance(policy, SparseDeliveryPolicy)

    def test_baselines_use_pure_coalescing(self):
        # Deterministic-quorum protocols broadcast votes to everyone, so
        # there is nothing to prune — only events to coalesce.
        for protocol in ("pbft", "hotstuff"):
            cell = MatrixCell(
                protocol=protocol,
                adversary="none",
                latency="constant",
                n=14,
                f=2,
                track_bytes=False,
            )
            policy = (
                cell_deployment_spec(cell, seed=0, max_time=MAX_TIME)
                .with_sparse()
                .build()
                .network.delivery_policy
            )
            assert type(policy) is SparseDeliveryPolicy


class TestLargeNSmoke:
    def test_probft_n500_sparse_trial_decides(self):
        """One ProBFT n=500 sparse trial completes and decides (CI budget)."""
        cell = MatrixCell(
            protocol="probft",
            adversary="none",
            latency="constant",
            n=500,
            f=99,
            track_bytes=False,
        )
        spec = cell_deployment_spec(cell, seed=7, max_time=300.0)
        result = run_trial(spec.with_sparse())
        assert result.all_decided
        assert result.agreement_ok
