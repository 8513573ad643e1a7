"""Bundled crypto services for one deployment, plus the per-process pool.

Two construction paths:

* :meth:`CryptoContext.create` — a fresh, uncached context (plain
  :class:`SignatureScheme` / :class:`VRF`).  The reference semantics.
* :meth:`CryptoContext.pooled` — a per-process cache keyed by
  ``(n, master_seed)``.  Rebuilding the same deployment (same system size,
  same seed) reuses the key registry instead of re-deriving ``n`` key pairs,
  and the pooled context's signature/VRF services memoize verification —
  the simulation's hot path, since every broadcast envelope is verified by
  up to ``n`` receivers.  All cached computations are pure functions of
  their inputs, so pooled and fresh contexts are bit-identical by
  construction (and pinned by tests).

Both paths give each context its own :class:`~repro.crypto.verdicts.VerdictMemo`
(see :class:`CryptoContext`), so there is one code path for the memoized
protocol checks whichever way a deployment was built.

The pool is deliberately per-process: worker processes of a
:class:`~repro.harness.parallel.ExperimentEngine` each grow their own pool,
which keeps the bit-identity guarantee trivially (no cross-process state)
while still amortizing setup across the many trials each worker runs.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .keys import KeyRegistry
from .signatures import MemoizedSignatureScheme, SignatureScheme
from .verdicts import VerdictMemo
from .vrf import VRF, MemoizedVRF

#: Upper bound on pooled contexts kept alive; least-recently-used entries
#: are evicted first.  Large sweeps touch many ``(n, seed)`` pairs — the
#: bound keeps the pool from holding every registry ever built.
POOL_MAX_ENTRIES = 128

#: Byte-budget bounds for the pooled memo caches.  The floor keeps small
#: deployments from thrashing; the ceiling caps what one (n, master_seed)
#: pool entry may pin — at n=20000 an uncapped 4n-entry VRF memo would pin
#: gigabytes of expanded sample tuples.
MEMO_BUDGET_FLOOR = 32 << 20  # 32 MiB
MEMO_BUDGET_CEILING = 512 << 20  # 512 MiB


def memo_budget(n: int) -> Tuple[int, int]:
    """``(byte_budget, entry_bytes)`` for the size-``n`` VRF memo caches.

    A trial proves/expands ~2n+1 sampler keys; each memo entry pins an
    expanded sample tuple of ``s = min(n, ceil(1.7·ceil(2√n)))`` member ids
    (~40 bytes per id of tuple slot + int object) plus fixed overhead.  The
    ideal budget covers ``4n`` entries (two warm trials, the PR 7 cap) but
    is clamped to [floor, ceiling] so the cap scales with *bytes*, not
    entry counts — past n≈10⁴ the ceiling binds and eviction counters (see
    ``MemoizedVRF.evictions``) make the resulting thrash observable.
    """
    q = math.ceil(2.0 * math.sqrt(n))
    s_est = min(n, math.ceil(1.7 * q))
    entry_bytes = 40 * s_est + 160
    ideal = (4 * n + 64) * entry_bytes
    budget = min(MEMO_BUDGET_CEILING, max(MEMO_BUDGET_FLOOR, ideal))
    return budget, entry_bytes


def envelope_entries(n: int) -> int:
    """Entry cap of the per-deployment, envelope-keyed memos (verify and
    verdicts).

    A view of a size-``n`` trial signs ~2n vote envelopes; the cap admits
    ``4n + 64`` entries, so one trial's envelopes fit without FIFO eviction.
    Entries pin shallow object graphs (~1 KiB amortized; the fat sample
    tuples are shared with the VRF memo), so at 1 KiB per entry the cap is
    clamped to the [floor, ceiling] byte bounds.
    """
    budget = min(MEMO_BUDGET_CEILING, max(MEMO_BUDGET_FLOOR, (4 * n + 64) * 1024))
    return budget // 1024


@dataclass(frozen=True)
class CryptoContext:
    """Registry + signature scheme + VRF, created from one master seed.

    Every replica (and the adversary, for its corrupted replicas) shares one
    context per deployment, mirroring the paper's "keys are distributed
    before the system starts" assumption (§2.1).

    ``verdicts`` is the deployment's :class:`VerdictMemo`: the recipient-
    independent checks every replica runs on the same shared envelope
    (``valid_new_leader`` on a justification, ``prevalidate_vote`` on a
    Prepare/Commit, PBFT's ``pbft_valid_new_leader``) store their verdicts
    there, keyed by envelope identity, so each envelope is validated once
    per deployment instead of once per receiver.  Both :meth:`create` and
    :meth:`pooled` build a fresh one (never pooled: it pins envelopes), and
    the memoized checks are pure, so results stay bit-identical.
    """

    registry: KeyRegistry
    signatures: SignatureScheme
    vrf: VRF
    verdicts: VerdictMemo = field(compare=False, repr=False)

    @staticmethod
    def create(n: int, master_seed: bytes = b"repro-probft") -> "CryptoContext":
        registry = KeyRegistry(n, master_seed)
        return CryptoContext(
            registry=registry,
            signatures=SignatureScheme(registry),
            vrf=VRF(registry),
            verdicts=VerdictMemo(envelope_entries(n)),
        )

    @staticmethod
    def pooled(n: int, master_seed: bytes = b"repro-probft") -> "CryptoContext":
        """A context over the process-wide pool entry for ``(n, master_seed)``.

        The pool shares what is safe to share indefinitely: the immutable
        :class:`KeyRegistry` (skipping the ``n`` key-pair re-derivation) and
        a :class:`MemoizedVRF` whose caches are *value*-keyed — sampler-key
        bytes → sample tuple for verification, and ``(replica, seed, s)`` →
        proven output for the honest prove path — so same-seed trials reuse
        each other's shuffle expansions *and* a replica's recurring per-view
        sampler keys are proven once per pool entry (the adversary's
        explicit-key ``prove_with`` path is never cached).  The signature scheme, whose memo is keyed by
        envelope *identity* and therefore pins envelope object graphs
        alive, is created fresh per call — its big win is within one
        deployment (each broadcast verified by up to ``n`` receivers), and
        per-deployment scoping keeps a long streaming sweep from retaining
        dead envelopes.  Results are bit-identical to :meth:`create`
        (memoization caches pure functions only), and state never leaks
        across keys: each ``(n, master_seed)`` pair owns its own registry
        and caches.
        """
        key = (n, master_seed)
        with _POOL_LOCK:
            entry = _POOL.get(key)
            if entry is not None:
                _POOL.move_to_end(key)
                _POOL_STATS["hits"] += 1
        if entry is None:
            # Build outside the lock: registry derivation is the expensive
            # part.  A racing builder may have published meanwhile; keep the
            # first entry so concurrent callers share one VRF cache.
            registry = KeyRegistry(n, master_seed)
            # A trial proves ~2n+1 sampler keys (prepare + commit per
            # replica, plus the leader's propose); a fixed entry bound
            # FIFO-thrashes past n≈4000, while an uncapped 4n-entry bound
            # pins gigabytes past n≈10⁴.  Budget by bytes instead (see
            # memo_budget) and let the eviction counter expose any thrash.
            budget, entry_bytes = memo_budget(n)
            built = (
                registry,
                MemoizedVRF(
                    registry, byte_budget=budget, entry_bytes=entry_bytes
                ),
            )
            with _POOL_LOCK:
                entry = _POOL.get(key)
                if entry is None:
                    _POOL_STATS["misses"] += 1
                    _POOL[key] = entry = built
                    while len(_POOL) > POOL_MAX_ENTRIES:
                        _POOL.popitem(last=False)
                else:
                    _POOL_STATS["hits"] += 1
        registry, vrf = entry
        entries = envelope_entries(n)
        return CryptoContext(
            registry=registry,
            signatures=MemoizedSignatureScheme(registry, max_entries=entries),
            vrf=vrf,
            verdicts=VerdictMemo(entries),
        )

    @property
    def n(self) -> int:
        return self.registry.n


#: Pool entries: (registry, shared value-keyed VRF) per (n, master_seed).
_POOL: "OrderedDict[Tuple[int, bytes], Tuple[KeyRegistry, MemoizedVRF]]" = (
    OrderedDict()
)
_POOL_LOCK = threading.Lock()
_POOL_STATS: Dict[str, int] = {"hits": 0, "misses": 0}


def clear_crypto_pool() -> None:
    """Drop every pooled context and reset the hit/miss counters."""
    with _POOL_LOCK:
        _POOL.clear()
        _POOL_STATS["hits"] = 0
        _POOL_STATS["misses"] = 0


def crypto_pool_stats() -> Dict[str, int]:
    """Pool telemetry: ``{"hits", "misses", "size"}`` for this process."""
    with _POOL_LOCK:
        return {
            "hits": _POOL_STATS["hits"],
            "misses": _POOL_STATS["misses"],
            "size": len(_POOL),
        }
