"""Exactness of the per-deployment verdict memo (``CryptoContext.verdicts``).

The memo serves a stored verdict only for the very same envelope object
under the very same config (and target view); every other call, and every
audit under an explicit leader schedule, runs the full check.  These tests pin that a memo hit can never
turn a forgery into an accepted message, that evicted entries are
recomputed with the same verdict, and that a sparse trial validates each
prepared certificate once per NewLeader envelope instead of once per
receiving replica.
"""

from dataclasses import replace

import pytest

from repro.baselines.pbft import pbft_valid_new_leader
from repro.config import ProtocolConfig
from repro.core import predicates
from repro.core.predicates import valid_new_leader
from repro.core.replica import prevalidate_vote
from repro.crypto.context import CryptoContext, envelope_entries
from repro.crypto.signatures import Signed
from repro.crypto.verdicts import VerdictMemo
from repro.crypto.vrf import phase_seed
from repro.harness.registry import MatrixCell, cell_deployment_spec
from repro.harness.trial import run_trial
from repro.messages.pbft import PbftNewLeader

from .helpers import make_new_leader, make_prepare, make_statement


@pytest.fixture(scope="module")
def setup():
    """n=30 (samples do not cover everyone), one honest prepared certificate
    for view 1 held by ``holder``, and an ``outsider`` missing from at least
    one of its Prepare samples."""
    cfg = ProtocolConfig(n=30, f=5)
    crypto = CryptoContext.create(cfg.n, b"verdict-memo")
    seed = phase_seed(1, "prepare", cfg.seed_domain)
    samples = {
        s: crypto.vrf.prove(s, seed, cfg.sample_size).sample for s in range(cfg.n)
    }
    for holder in range(cfg.n):
        senders = [s for s in range(cfg.n) if holder in samples[s]][: cfg.q]
        if len(senders) == cfg.q:
            break
    outsider = next(
        o
        for o in range(cfg.n)
        if o != holder and any(o not in samples[s] for s in senders)
    )
    statement = make_statement(crypto, cfg, 1, b"v")
    cert = tuple(make_prepare(crypto, cfg, s, statement) for s in senders)
    return cfg, crypto, holder, outsider, cert


def honest_new_leader(setup, view=2):
    cfg, crypto, holder, _outsider, cert = setup
    return make_new_leader(
        crypto, cfg, holder, view=view, prepared_view=1, prepared_value=b"v",
        cert=cert,
    )


class TestForgeriesAfterAcceptance:
    def test_certificate_under_another_holder_rejected(self, setup):
        cfg, crypto, _holder, outsider, cert = setup
        assert valid_new_leader(honest_new_leader(setup), 2, cfg, crypto)
        # The outsider signs a NewLeader with its own key around the very
        # same certificate tuple: it is not in every sample, so it does not
        # hold the certificate.
        stolen = make_new_leader(
            crypto, cfg, outsider, view=2, prepared_view=1, prepared_value=b"v",
            cert=cert,
        )
        assert not valid_new_leader(stolen, 2, cfg, crypto)
        # ... and relabelling the honest envelope's signer breaks the
        # signature.
        honest = honest_new_leader(setup)
        assert valid_new_leader(honest, 2, cfg, crypto)
        relabelled = Signed(
            payload=honest.payload, signer=outsider, signature=honest.signature
        )
        assert not valid_new_leader(relabelled, 2, cfg, crypto)

    def test_certificate_under_another_target_view_rejected(self, setup):
        cfg, crypto, _holder, _outsider, _cert = setup
        honest = honest_new_leader(setup)
        assert valid_new_leader(honest, 2, cfg, crypto)
        # The same accepted envelope is no justification for view 3 ...
        assert not valid_new_leader(honest, 3, cfg, crypto)
        # ... nor is a copy whose payload was moved to view 3 under the
        # honest signature.
        moved = replace(honest, payload=replace(honest.payload, view=3))
        assert not valid_new_leader(moved, 3, cfg, crypto)
        assert valid_new_leader(honest, 2, cfg, crypto)

    def test_pbft_new_leader_relabel_rejected(self):
        cfg = ProtocolConfig(n=7, f=2)
        crypto = CryptoContext.create(cfg.n, b"verdict-pbft")
        honest = crypto.signatures.sign(
            3, PbftNewLeader(view=2, prepared_view=0, prepared_value=None, cert=())
        )
        assert pbft_valid_new_leader(honest, 2, cfg, crypto)
        assert not pbft_valid_new_leader(honest, 3, cfg, crypto)
        relabelled = Signed(
            payload=honest.payload, signer=4, signature=honest.signature
        )
        assert not pbft_valid_new_leader(relabelled, 2, cfg, crypto)


class TestKeyedOnEverythingTheVerdictReads:
    def test_other_config_recomputed(self, setup):
        cfg, crypto, *_ = setup
        honest = honest_new_leader(setup)
        assert valid_new_leader(honest, 2, cfg, crypto)
        misses = crypto.verdicts.misses
        # An equal config object is still a different key: recomputed.
        twin = ProtocolConfig(n=30, f=5)
        assert valid_new_leader(honest, 2, twin, crypto)
        assert crypto.verdicts.misses == misses + 1
        # A config of another instance (domain) rejects the envelope.
        other = ProtocolConfig(n=30, f=5, seed_domain="slot-9")
        assert not valid_new_leader(honest, 2, other, crypto)
        assert valid_new_leader(honest, 2, cfg, crypto)

    def test_other_leader_schedule_recomputed(self, setup):
        cfg, crypto, *_ = setup
        honest = honest_new_leader(setup)
        assert valid_new_leader(honest, 2, cfg, crypto)
        memo = crypto.verdicts.cache_stats()
        # Under a schedule where replica 7 led view 1 the certificate's
        # statement was signed by the wrong leader.
        assert not valid_new_leader(
            honest, 2, cfg, crypto, leader_fn=lambda view, n: 7
        )
        # Audits under an explicit schedule bypass the memo entirely.
        assert crypto.verdicts.cache_stats() == memo
        assert valid_new_leader(honest, 2, cfg, crypto)

    def test_other_target_view_recomputed(self, setup):
        cfg, crypto, *_ = setup
        honest = honest_new_leader(setup, view=3)
        assert valid_new_leader(honest, 3, cfg, crypto)
        misses = crypto.verdicts.misses
        assert not valid_new_leader(honest, 2, cfg, crypto)
        assert crypto.verdicts.misses == misses + 1

    def test_vote_token_other_config_recomputed(self, setup):
        cfg, crypto, *_ignored, cert = setup
        vote = cert[0]
        token = prevalidate_vote(cfg, crypto, vote)
        assert token.valid and prevalidate_vote(cfg, crypto, vote) is token
        other = ProtocolConfig(n=30, f=5, seed_domain="slot-9")
        assert not prevalidate_vote(other, crypto, vote).valid

    def test_non_votes_stay_out_of_the_memo(self, setup):
        cfg, crypto, *_ = setup
        memo = crypto.verdicts.cache_stats()
        statement = make_statement(crypto, cfg, 1, b"v")
        assert prevalidate_vote(cfg, crypto, statement) is None
        assert prevalidate_vote(cfg, crypto, honest_new_leader(setup)) is None
        assert crypto.verdicts.cache_stats() == memo


class TestEviction:
    def test_evicted_entries_recomputed_with_same_verdict(self, setup):
        cfg, crypto, _holder, outsider, cert = setup
        tiny = replace(crypto, verdicts=VerdictMemo(1))
        honest = honest_new_leader(setup)
        stolen = make_new_leader(
            crypto, cfg, outsider, view=2, prepared_view=1, prepared_value=b"v",
            cert=cert,
        )
        for _round in range(3):
            assert valid_new_leader(honest, 2, cfg, tiny)
            assert not valid_new_leader(stolen, 2, cfg, tiny)
        stats = tiny.verdicts.cache_stats()
        assert stats["evictions"] == 5 and stats["hits"] == 0
        assert stats["entries"] == stats["max_entries"] == 1
        # The last entry still serves; the evicted one is recomputed.
        assert not valid_new_leader(stolen, 2, cfg, tiny)
        assert valid_new_leader(honest, 2, cfg, tiny)
        stats = tiny.verdicts.cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 7

    def test_entry_cap_validation(self):
        assert VerdictMemo(1).cache_stats()["max_entries"] == 1
        with pytest.raises(ValueError):
            VerdictMemo(0)

    def test_deployments_sized_by_envelope_entries(self):
        for n in (4, 30, 500):
            crypto = CryptoContext.pooled(n, b"memo-size")
            cap = envelope_entries(n)
            assert cap >= 4 * n + 64
            assert crypto.verdicts.cache_stats()["max_entries"] == cap
            assert CryptoContext.create(n).verdicts.cache_stats()[
                "max_entries"
            ] == cap

    def test_create_and_pooled_get_fresh_memos(self):
        a = CryptoContext.create(8, b"fresh-memo")
        b = CryptoContext.create(8, b"fresh-memo")
        c = CryptoContext.pooled(8, b"fresh-memo")
        d = CryptoContext.pooled(8, b"fresh-memo")
        memos = {id(x.verdicts) for x in (a, b, c, d)}
        assert len(memos) == 4


def _equivocation_spec():
    # A fresh spec per run: a spec's latency model carries its RNG.
    cell = MatrixCell(
        protocol="probft", adversary="equivocation", latency="uniform",
        n=30, f=5, track_bytes=True,
    )
    return cell_deployment_spec(cell, seed=1, max_time=600.0)


class TestOneValidationPerEnvelope:
    def test_sparse_equivocation_trial(self, monkeypatch):
        """Every correct replica checks the same justification envelopes;
        the certificate inside each is validated at most once."""
        certificates = {"calls": 0}
        envelopes = {}
        validate = predicates.validate_prepared_certificate
        check = predicates.valid_new_leader

        def counting_validate(*args, **kwargs):
            certificates["calls"] += 1
            return validate(*args, **kwargs)

        def recording_check(signed, *args, **kwargs):
            envelopes[id(signed)] = signed  # pinned: ids stay unique
            return check(signed, *args, **kwargs)

        monkeypatch.setattr(
            predicates, "validate_prepared_certificate", counting_validate
        )
        monkeypatch.setattr(predicates, "valid_new_leader", recording_check)
        sparse = run_trial(_equivocation_spec().with_sparse())
        monkeypatch.undo()

        with_cert = [s for s in envelopes.values() if s.payload.cert]
        assert with_cert, "the pinned seed must change views with certificates"
        assert 0 < certificates["calls"] <= len(envelopes)
        assert sparse.all_decided and sparse.agreement_ok
        assert sparse == run_trial(_equivocation_spec())
