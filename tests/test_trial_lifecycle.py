"""Tests for the unified trial lifecycle and the pooled CryptoContext.

Covers the two hard guarantees of the refactor:

* every runner surface (good_case_metrics, DeploymentSpec, matrix cells)
  is one lifecycle — same spec, same result;
* pooled crypto (shared registries + memoized verification) is
  **bit-identical** to fresh per-deployment crypto, serially and across
  worker processes, and pool keying never leaks state across differing
  ``(n, master_seed)``.
"""

from __future__ import annotations

import pytest

from repro.config import ProtocolConfig
from repro.crypto.context import (
    CryptoContext,
    clear_crypto_pool,
    crypto_pool_stats,
)
from repro.crypto.hashing import digest
from repro.crypto.signatures import MemoizedSignatureScheme, Signed
from repro.crypto.vrf import MemoizedVRF, VRFOutput
from repro.harness.trial import (
    DeploymentSpec,
    TrialContext,
    good_case_metrics,
    list_protocols,
    register_protocol,
    run_trial,
)
from repro.montecarlo.experiments import estimate_protocol_agreement
from repro.net.latency import ConstantLatency


def _fresh_result(protocol: str, domain: str, config: ProtocolConfig, seed: int):
    """Run one trial with an explicitly fresh (unpooled, unmemoized) context."""
    crypto = CryptoContext.create(config.n, master_seed=digest(domain, seed))
    spec = DeploymentSpec(
        protocol=protocol,
        config=config,
        seed=seed,
        max_time=5000,
        extra=(("crypto", crypto),),
    )
    return run_trial(spec)


class TestRunTrialDispatch:
    def test_good_case_metrics_equivalent_to_spec(self):
        config = ProtocolConfig(n=10, f=2)
        for protocol in ("probft", "pbft", "hotstuff"):
            via_spec = run_trial(
                DeploymentSpec(
                    protocol=protocol,
                    config=config,
                    seed=7,
                    latency=ConstantLatency(1.0),
                    max_time=10_000,
                )
            )
            assert good_case_metrics(protocol, config, seed=7) == via_spec

    def test_unknown_protocol_raises_clear_keyerror(self):
        spec = DeploymentSpec(protocol="paxos", config=ProtocolConfig(n=4, f=1))
        with pytest.raises(KeyError, match="unknown protocol 'paxos'"):
            run_trial(spec)

    def test_duplicate_protocol_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_protocol("probft", lambda *a, **k: None)

    def test_registered_protocols(self):
        assert list_protocols() == ["hotstuff", "pbft", "probft"]

    def test_with_seed_changes_only_seed(self):
        spec = DeploymentSpec(protocol="probft", config=ProtocolConfig(n=4, f=1))
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.protocol == spec.protocol
        assert reseeded.config == spec.config

    def test_context_is_idempotent_and_keeps_deployment(self):
        spec = DeploymentSpec(
            protocol="probft", config=ProtocolConfig(n=8, f=1), seed=3,
            max_time=5000,
        )
        context = TrialContext(spec)
        deployment = context.build()
        assert context.build() is deployment
        result = context.execute()
        assert context.execute() is result
        assert context.deployment is deployment
        assert deployment.all_correct_decided() == result.all_decided


class TestCryptoPoolDeterminism:
    """Pooled and fresh crypto must be bit-identical, per the ISSUE."""

    @pytest.mark.parametrize(
        "protocol,domain",
        [
            ("probft", "deployment"),
            ("pbft", "pbft-deployment"),
            ("hotstuff", "hotstuff-deployment"),
        ],
    )
    def test_pooled_matches_fresh_bitwise(self, protocol, domain):
        config = ProtocolConfig(n=10, f=2)
        fresh = _fresh_result(protocol, domain, config, seed=21)
        clear_crypto_pool()
        pooled_cold = run_trial(
            DeploymentSpec(protocol=protocol, config=config, seed=21, max_time=5000)
        )
        pooled_warm = run_trial(
            DeploymentSpec(protocol=protocol, config=config, seed=21, max_time=5000)
        )
        assert fresh == pooled_cold == pooled_warm
        stats = crypto_pool_stats()
        assert stats["hits"] >= 1  # the warm run reused the cold run's entry

    def test_pooled_matches_fresh_across_workers(self):
        """Serial and workers=2 protocol-level estimates are identical —
        each worker grows its own pool, none of which changes results."""
        config = ProtocolConfig(n=8, f=2)
        serial = estimate_protocol_agreement(config, trials=4, seed=5, workers=0)
        pooled = estimate_protocol_agreement(config, trials=4, seed=5, workers=2)
        assert (
            serial.estimates["violation_full_protocol"].successes
            == pooled.estimates["violation_full_protocol"].successes
        )
        assert (
            serial.estimates["undecided_runs"].successes
            == pooled.estimates["undecided_runs"].successes
        )

    def test_pool_reuses_registry_and_vrf(self):
        clear_crypto_pool()
        a = CryptoContext.pooled(8, b"pool-key")
        b = CryptoContext.pooled(8, b"pool-key")
        # Registry and (value-keyed) VRF cache are shared; the signature
        # scheme is per-context so its identity-keyed memo cannot pin
        # envelope graphs across deployments.
        assert a.registry is b.registry
        assert a.vrf is b.vrf
        assert a.signatures is not b.signatures
        assert crypto_pool_stats() == {"hits": 1, "misses": 1, "size": 1}

    def test_pool_keying_isolates_n_and_seed(self):
        clear_crypto_pool()
        base = CryptoContext.pooled(8, b"seed-A")
        other_seed = CryptoContext.pooled(8, b"seed-B")
        other_n = CryptoContext.pooled(9, b"seed-A")
        assert base is not other_seed and base is not other_n
        # Key material differs across pool keys and matches fresh derivation.
        for context, (n, seed) in (
            (base, (8, b"seed-A")),
            (other_seed, (8, b"seed-B")),
            (other_n, (9, b"seed-A")),
        ):
            fresh = CryptoContext.create(n, seed)
            assert context.n == n
            for r in range(n):
                assert (
                    context.registry.key_pair(r) == fresh.registry.key_pair(r)
                )
        assert (
            base.registry.key_pair(0) != other_seed.registry.key_pair(0)
        )

    def test_clear_pool_resets(self):
        CryptoContext.pooled(4, b"x")
        clear_crypto_pool()
        assert crypto_pool_stats() == {"hits": 0, "misses": 0, "size": 0}


class TestMemoizedVerification:
    def test_memoized_vrf_matches_plain(self):
        fresh = CryptoContext.create(12, b"vrf-memo")
        memo = MemoizedVRF(fresh.registry)
        for replica in range(12):
            for seed_str in ("1||prepare", "1||commit", "2||prepare"):
                plain_out = fresh.vrf.prove(replica, seed_str, 5)
                memo_out = memo.prove(replica, seed_str, 5)
                assert plain_out == memo_out
                assert memo.verify(replica, seed_str, 5, memo_out)
        # Verifying the very object prove() returned short-circuits on the
        # prove memo (no shuffle replay) ...
        assert memo.prove_identity_hits > 0
        # ... while a value-equal clone takes the full path and replays the
        # shuffle through the sample memo.
        clone = VRFOutput(sample=plain_out.sample, proof=plain_out.proof)
        assert memo.verify(11, "2||prepare", 5, clone)
        assert memo.hits > 0
        # Re-proving hits the prove cache without changing outputs.
        again = memo.prove(3, "1||prepare", 5)
        assert again == fresh.vrf.prove(3, "1||prepare", 5)
        assert memo.prove_hits > 0

    def test_memoized_signatures_cache_by_identity_not_signature(self):
        """A forged envelope reusing a real signature must still fail:
        the cache is keyed by object identity, never (signer, signature)."""
        fresh = CryptoContext.create(4, b"sig-memo")
        memo = MemoizedSignatureScheme(fresh.registry)
        signed = memo.sign(1, ("vote", b"A"))
        assert memo.verify(signed)
        assert memo.verify(signed)  # cached
        assert memo.hits == 1 and memo.misses == 1
        forged = Signed(
            payload=("vote", b"B"), signer=1, signature=signed.signature
        )
        assert not memo.verify(forged)
        assert not fresh.signatures.verify(forged)

    def test_memoized_signature_eviction_keeps_correctness(self):
        fresh = CryptoContext.create(4, b"sig-evict")
        memo = MemoizedSignatureScheme(fresh.registry, max_entries=2)
        envelopes = [memo.sign(0, ("m", i)) for i in range(5)]
        for envelope in envelopes:
            assert memo.verify(envelope)
        for envelope in envelopes:  # some evicted, all still verify
            assert memo.verify(envelope)
        assert len(memo._cache) <= 2

    def test_vrf_cache_bounded(self):
        fresh = CryptoContext.create(6, b"vrf-bound")
        memo = MemoizedVRF(fresh.registry, max_entries=3)
        for view in range(10):
            memo.prove(0, f"{view}||prepare", 3)
        assert len(memo._cache) <= 3
        assert len(memo._prove_cache) <= 3

    def test_prove_memo_bit_identical_on_golden_seeds(self):
        """Recurring per-view sampler keys prove once — and identically.

        The prove memo is keyed (replica, seed, s) over the immutable
        registry, so the memoized prover's outputs (sample AND proof bytes)
        must be bit-identical to an uncached VRF for every golden seed.
        """
        fresh = CryptoContext.create(10, b"prove-memo-golden")
        memo = MemoizedVRF(fresh.registry)
        golden = [
            (replica, f"{view}||{tag}", 4)
            for replica in (0, 3, 9)
            for view in (1, 2, 7)
            for tag in ("prepare", "commit")
        ]
        first = [memo.prove(*args) for args in golden]
        assert memo.prove_misses == len(golden) and memo.prove_hits == 0
        again = [memo.prove(*args) for args in golden]
        assert memo.prove_hits == len(golden)
        reference = [fresh.vrf.prove(*args) for args in golden]
        assert first == again == reference
        for out in first:
            assert isinstance(out.proof, bytes)

    def test_prove_with_explicit_key_is_never_cached(self):
        """The adversary's corrupted-key path must not hit the memo: an
        explicit key that differs from the registry's yields a different
        output even for a (replica, seed, s) triple already memoized."""
        fresh = CryptoContext.create(6, b"prove-memo-adv")
        memo = MemoizedVRF(fresh.registry)
        honest = memo.prove(2, "1||prepare", 3)
        misses = memo.prove_misses
        wrong_key = b"\x07" * 32
        forged = memo.prove_with(wrong_key, 2, "1||prepare", 3)
        assert forged != honest
        assert memo.prove_misses == misses  # prove_with bypassed the memo
        assert forged == fresh.vrf.prove_with(wrong_key, 2, "1||prepare", 3)
        # And the forged output does not verify as replica 2.
        assert not memo.verify(2, "1||prepare", 3, forged)
