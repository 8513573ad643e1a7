"""Deterministic discrete-event simulation kernel.

A tiny but complete DES: events are ``(time, sequence, callback)`` triples
ordered by time with ties broken by scheduling order, so runs are fully
deterministic.  All model randomness lives in *seeded* RNGs owned by the
latency model / adversary, never in the kernel.

Two interchangeable queue representations sit behind one interface:

* **heap** (the reference): a single binary heap of entries — optimal for
  small, irregular schedules and the easiest structure to reason about.
* **bucket** (the large-n fast path): protocol traffic is heavily
  *time-bucketed* — a broadcast under constant latency lands thousands of
  events on one timestamp — so the queue keeps a dict of per-time FIFO
  buckets plus a small heap of distinct times.  Scheduling into an existing
  bucket is O(1) (dict hit + append) instead of an O(log N) sift, and
  draining a bucket walks a list instead of popping the heap per event.
  Entries append in sequence order, so walking a bucket front-to-back *is*
  ``(time, seq)`` order: the fire order is bit-identical to the heap's.

``queue="auto"`` (the default) starts on the heap and migrates to buckets
once the backlog crosses ``bucket_threshold``
(:data:`repro.config.DEFAULT_SIM_TUNING`); migration re-groups the pending
entries by time and sorts each bucket by sequence, so the switch is
invisible to event ordering.  ``queue="heap"`` pins the reference behavior.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..config import DEFAULT_SIM_TUNING
from ..errors import SimulationError

Callback = Callable[[], None]

_QUEUE_MODES = ("auto", "heap", "bucket")


def _fired() -> None:  # sentinel: the event already ran; cancel is a no-op
    raise AssertionError("fired-event sentinel must never be invoked")


@dataclass(frozen=True)
class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    time: float
    seq: int
    _entry: list = field(repr=False, compare=False)
    _sim: Optional["Simulator"] = field(
        default=None, repr=False, compare=False
    )

    def cancel(self) -> None:
        """Cancel the event if it has not fired yet (idempotent)."""
        callback = self._entry[3]
        if callback is None or callback is _fired:
            return
        self._entry[3] = None
        if self._sim is not None:
            self._sim._note_cancelled()

    @property
    def cancelled(self) -> bool:
        return self._entry[3] is None


class Simulator:
    """Virtual-time event loop.

    Args:
        queue: event-queue representation — ``"auto"`` (heap, migrating to
            time buckets past ``bucket_threshold`` pending events),
            ``"heap"`` (reference, never migrates), or ``"bucket"``
            (buckets from the first event).  All three fire events in the
            same ``(time, seq)`` order (``tests/test_net_simulator.py``
            replays random schedules against the heap).
        compact_floor: tombstone-compaction floor (default
            :data:`repro.config.DEFAULT_SIM_TUNING`).
        bucket_threshold: backlog size that flips ``"auto"`` to buckets
            (default :data:`repro.config.DEFAULT_SIM_TUNING`).

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5.0]
    """

    #: Default compaction floor, re-exported from :mod:`repro.config` for
    #: callers/tests that size workloads off the class. Compaction only
    #: kicks in past this — tiny queues are cheap to scan and compacting
    #: them would just churn allocations.
    _COMPACT_FLOOR = DEFAULT_SIM_TUNING.compact_floor

    def __init__(
        self,
        *,
        queue: str = "auto",
        compact_floor: Optional[int] = None,
        bucket_threshold: Optional[int] = None,
    ) -> None:
        if queue not in _QUEUE_MODES:
            raise SimulationError(
                f"unknown queue mode {queue!r}; expected one of {_QUEUE_MODES}"
            )
        self._queue_mode = queue
        self._compact_floor = (
            compact_floor
            if compact_floor is not None
            else DEFAULT_SIM_TUNING.compact_floor
        )
        self._bucket_threshold = (
            bucket_threshold
            if bucket_threshold is not None
            else DEFAULT_SIM_TUNING.bucket_threshold
        )
        self._now: float = 0.0
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._live = 0
        self._cancelled = 0
        # Bucket-mode state (unused until migration).
        self._bucketed = queue == "bucket"
        self._buckets: Dict[float, List[list]] = {}
        self._time_heap: List[float] = []
        self._cur_time: float = 0.0
        self._cur_list: Optional[List[list]] = None
        self._cur_idx: int = 0
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events (O(1))."""
        return self._live

    @property
    def queue_mode(self) -> str:
        """The queue representation in use (``heap`` or ``bucket``)."""
        return "bucket" if self._bucketed else "heap"

    # ------------------------------------------------------------------
    # Cancellation bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Bookkeeping hook called by :meth:`EventHandle.cancel`.

        Lazily compacts the queue once more than half of it is tombstones,
        so bounded-window timer churn (cancel + re-arm per view) cannot grow
        the backlog past ~2x the live event count.
        """
        self._live -= 1
        self._cancelled += 1
        if self._bucketed:
            if (
                self._cancelled > self._live
                and self._cancelled >= self._compact_floor
            ):
                self._compact_buckets()
            return
        if (
            self._cancelled > len(self._heap) // 2
            and len(self._heap) >= self._compact_floor
        ):
            self._heap = [entry for entry in self._heap if entry[3] is not None]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def _compact_buckets(self) -> None:
        """Sweep tombstones out of every bucket except the in-progress one
        (whose cursor indexes into the live list)."""
        swept = 0
        for time_ in list(self._buckets):
            bucket = self._buckets[time_]
            if bucket is self._cur_list:
                continue
            kept = [entry for entry in bucket if entry[3] is not None]
            swept += len(bucket) - len(kept)
            if kept:
                self._buckets[time_] = kept
            else:
                # The time stays in the time-heap; _next_bucket skips it.
                del self._buckets[time_]
        self._cancelled -= swept

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        seq = next(self._seq)
        entry = [time, seq, None, callback]
        if self._bucketed:
            bucket = self._buckets.get(time)
            if bucket is None:
                self._buckets[time] = [entry]
                heapq.heappush(self._time_heap, time)
            else:
                bucket.append(entry)
        else:
            heapq.heappush(self._heap, entry)
            if (
                self._queue_mode == "auto"
                and len(self._heap) > self._bucket_threshold
            ):
                self._migrate_to_buckets()
        self._live += 1
        handle = EventHandle(time=time, seq=seq, _entry=entry, _sim=self)
        entry[2] = handle
        return handle

    def _migrate_to_buckets(self) -> None:
        """Re-group the heap backlog into per-time buckets (once).

        Buckets sort by sequence so front-to-back bucket order equals the
        heap's ``(time, seq)`` pop order — the migration cannot reorder any
        pending event.
        """
        buckets: Dict[float, List[list]] = {}
        for entry in self._heap:
            bucket = buckets.get(entry[0])
            if bucket is None:
                buckets[entry[0]] = [entry]
            else:
                bucket.append(entry)
        for bucket in buckets.values():
            bucket.sort(key=lambda e: e[1])
        self._buckets = buckets
        self._time_heap = list(buckets)
        heapq.heapify(self._time_heap)
        self._heap = []
        self._cur_list = None
        self._bucketed = True

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Process the single next event; returns False if none remain."""
        if self._bucketed:
            return self._bucket_step()
        while self._heap:
            entry = heapq.heappop(self._heap)
            callback = entry[3]
            if callback is None:
                self._cancelled -= 1
                continue  # cancelled
            entry[3] = _fired  # late cancel() must stay a no-op
            self._live -= 1
            self._now = entry[0]
            self._events_processed += 1
            callback()
            return True
        return False

    def _bucket_step(self) -> bool:
        while True:
            bucket = self._cur_list
            if bucket is None:
                if self._next_bucket() is None:
                    return False
                continue
            if self._cur_idx >= len(bucket):
                # Drained; a later event at this exact time opens a fresh
                # bucket (and re-pushes the time).
                del self._buckets[self._cur_time]
                self._cur_list = None
                continue
            entry = bucket[self._cur_idx]
            self._cur_idx += 1
            callback = entry[3]
            if callback is None:
                self._cancelled -= 1
                continue  # cancelled
            entry[3] = _fired  # late cancel() must stay a no-op
            self._live -= 1
            self._now = entry[0]
            self._events_processed += 1
            callback()
            return True

    def _next_bucket(self) -> Optional[float]:
        while self._time_heap:
            time_ = heapq.heappop(self._time_heap)
            bucket = self._buckets.get(time_)
            if bucket is None:
                continue  # compacted away (or drained + stale time)
            self._cur_time = time_
            self._cur_list = bucket
            self._cur_idx = 0
            return time_
        return None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run the event loop.

        Args:
            until: stop once virtual time would exceed this (the clock is
                advanced to ``until``).
            max_events: safety valve against runaway protocols.
            stop_when: predicate checked after every event.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        processed = 0
        try:
            while True:
                if stop_when is not None and stop_when():
                    return
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    return
                self.step()
                processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False

    def _peek_time(self) -> Optional[float]:
        if self._bucketed:
            return self._bucket_peek()
        while self._heap:
            entry = self._heap[0]
            if entry[3] is None:
                heapq.heappop(self._heap)
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def _bucket_peek(self) -> Optional[float]:
        while True:
            bucket = self._cur_list
            if bucket is not None:
                while self._cur_idx < len(bucket):
                    if bucket[self._cur_idx][3] is None:
                        self._cancelled -= 1
                        self._cur_idx += 1
                        continue
                    return self._cur_time
                del self._buckets[self._cur_time]
                self._cur_list = None
            if self._next_bucket() is None:
                return None
