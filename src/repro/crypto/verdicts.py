"""Per-deployment memo of pure validation verdicts over signed envelopes.

Every replica of a simulated deployment shares one address space, so the
*same* envelope object reaches up to ``n`` receivers, and each of them runs
the same recipient-independent check on it: a new leader's justification is
re-validated by every replica that receives the Propose carrying it
(``validNewLeader`` inside ``safeProposal``), and a Prepare/Commit vote is
prevalidated for every coalesced fan-out bucket it travels in (under
non-constant latency, about one per recipient).  These checks are pure
functions of ``(envelope, config, crypto)`` plus a few small arguments, so
one deployment needs each verdict only once.

:class:`VerdictMemo` follows :class:`~repro.crypto.signatures.MemoizedSignatureScheme`'s
idiom:

* entries are keyed on ``(check tag, id(envelope), value arguments…)`` and
  pin the envelope, so an id can never be recycled into a stale verdict;
* the :class:`~repro.config.ProtocolConfig` is identity-checked on every
  hit — the same envelope under another config is recomputed, never served;
* eviction is bounded FIFO over an entry count, counted in ``evictions``.

Verdicts stay exact: a forged or equivocating envelope is a different
object and takes the full check, and an evicted entry is recomputed.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable


class VerdictMemo:
    """Bounded, identity-keyed memo of check verdicts for one deployment."""

    __slots__ = ("_cache", "_max_entries", "hits", "misses", "evictions")

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        # key -> (envelope, config, verdict); the strong reference to the
        # envelope keeps its id stable for as long as the entry lives.
        self._cache: "OrderedDict[Hashable, tuple]" = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def verdict(
        self,
        key: Hashable,
        obj: object,
        config: object,
        check: Callable[..., Any],
        *args: Any,
    ) -> Any:
        """``check(*args)``, computed once per ``key`` for this very ``obj``
        and ``config``; later calls return the stored verdict.

        ``key`` must hold ``id(obj)`` plus every value argument the check
        reads besides ``obj``, ``config`` and the deployment's crypto.
        """
        cache = self._cache
        entry = cache.get(key)
        if entry is not None and entry[0] is obj and entry[1] is config:
            self.hits += 1
            return entry[2]
        verdict = check(*args)
        self.misses += 1
        cache[key] = (obj, config, verdict)
        if len(cache) > self._max_entries:
            cache.popitem(last=False)
            self.evictions += 1
        return verdict

    def cache_stats(self) -> dict:
        """Memo telemetry: hit/miss/eviction counters and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._cache),
            "max_entries": self._max_entries,
        }
