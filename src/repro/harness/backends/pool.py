"""Process-pool execution with a graceful lifecycle.

The workhorse backend for CPU-bound trials: fans specs across
``multiprocessing.Pool`` workers, collecting results in submission order
(``Pool.map``/``Pool.imap`` both preserve input order, so no re-sorting is
needed).  The pool persists across ``map``/``stream`` calls, amortizing
process startup over a whole experiment series, and is re-created
transparently after :meth:`close`.

Lifecycle: the happy path (:meth:`close`, context-manager exit) uses
``Pool.close()`` + ``join()`` so in-flight chunks finish and worker-side
``atexit``/coverage hooks run; the hard kill (``Pool.terminate()``) is
reserved for :meth:`abort` — error paths where waiting is wrong — and
``__del__``, where a half-collected pool must not block garbage collection.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
import multiprocessing.pool
from collections import deque
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence

from .base import (
    STREAM_CHUNK,
    Backend,
    Outcome,
    TrialSpec,
    execute_outcome,
    resolve_workers,
)

__all__ = ["ProcessPoolBackend"]


def _run_batch(
    fn: Callable[[TrialSpec], Any], batch: Sequence[TrialSpec]
) -> List[Outcome]:
    """Execute one windowed-dispatch batch in-worker (module-level: pickles)."""
    return [execute_outcome(fn, spec) for spec in batch]


class ProcessPoolBackend(Backend):
    """Fan trials across ``workers`` processes, deterministically.

    Trial functions must be picklable: module-level functions,
    ``functools.partial`` of module-level functions, or picklable
    callables.  ``chunk_size`` controls how many specs each pool task
    carries; the default amortizes IPC overhead at roughly four chunks per
    worker.  ``workers`` may exceed the core count (the OS time-slices) and
    accepts ``"auto"`` for the machine's core count.
    """

    name = "pool"

    def __init__(
        self, workers: int = 2, chunk_size: Optional[int] = None
    ) -> None:
        workers = resolve_workers(workers)
        if workers < 1:
            raise ValueError(f"pool workers must be >= 1, got {workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.workers = workers
        self.chunk_size = chunk_size
        self._pool: Optional["multiprocessing.pool.Pool"] = None
        # True once a stream over this pool was abandoned mid-iteration
        # (early break, error, dropped generator): imap's feeder has already
        # queued the remaining specs, so a graceful close() would execute
        # them all before returning.  close() then terminates instead.
        self._dirty = False

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def _get_pool(self) -> "multiprocessing.pool.Pool":
        # A dirty pool still has an abandoned stream's specs queued (imap's
        # feeder runs ahead of the consumer); new work must not wait behind
        # them, so replace the pool instead of reusing it.
        if self._dirty:
            self.abort()
        if self._pool is None:
            self._pool = multiprocessing.Pool(processes=self.workers)
            self._dirty = False
        return self._pool

    def _chunk(self, count: Optional[int]) -> int:
        """Deterministic chunk size for a (possibly unknown) spec count.

        With a known total, ≈4 chunks per worker so tiny workloads still
        spread across every process; :data:`~repro.harness.backends.base.
        STREAM_CHUNK` caps chunks for huge streams so results keep flowing
        back to online aggregators.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        if count is not None:
            return max(1, min(STREAM_CHUNK, math.ceil(count / (self.workers * 4))))
        return STREAM_CHUNK

    def map(
        self, fn: Callable[[TrialSpec], Any], specs: Iterable[TrialSpec]
    ) -> List[Any]:
        specs = list(specs)
        if not specs:
            return []
        outcomes = self._map_outcomes(fn, specs)
        return [outcome.unwrap() for outcome in outcomes]

    def _map_outcomes(
        self, fn: Callable[[TrialSpec], Any], specs: Sequence[TrialSpec]
    ) -> List[Outcome]:
        chunk = self.chunk_size or max(
            1, math.ceil(len(specs) / (self.workers * 4))
        )
        worker = functools.partial(execute_outcome, fn)
        return self._get_pool().map(worker, specs, chunksize=chunk)

    def stream(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int] = None,
        window: Optional[int] = None,
    ) -> Iterator[Any]:
        """Keep ``workers`` processes busy ahead of the consumer.

        Without ``window``: ``Pool.imap``, whose feeder thread reads the
        whole spec iterable ahead (out-of-order completions buffer
        internally until their submission-order turn comes) — the fastest
        path for fully-consumed streams, but an abandoned one leaves the
        queue full and forces a terminating close.  With ``window``: the
        bounded-window contract — explicit ``apply_async`` batches with at
        most about ``window`` specs in flight, so early cancellation only
        waits out that bounded remainder and the pool stays clean for a
        graceful close.
        """
        if window is not None:
            if window < 1:
                raise ValueError(f"window must be >= 1, got {window}")
            yield from self._stream_windowed(fn, specs, count, window)
            return
        worker = functools.partial(execute_outcome, fn)
        pool = self._get_pool()
        results = pool.imap(worker, specs, chunksize=self._chunk(count))
        # Fetch one outcome ahead of the consumer: exhaustion is then
        # observed *before* the final yield, so a consumer that pulls
        # exactly ``count`` results (``zip``, ``next``-loops — run_matrix
        # does) still counts as a fully-drained,
        # clean stream.  Only a stream dropped with work genuinely
        # outstanding marks the pool dirty.
        finished = False
        try:
            try:
                pending = next(results)
            except StopIteration:
                finished = True
                return
            while True:
                try:
                    upcoming = next(results)
                except StopIteration:
                    finished = True
                    yield pending.unwrap()
                    return
                yield pending.unwrap()
                pending = upcoming
        finally:
            if not finished:
                self._dirty = True

    def _stream_windowed(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Iterable[TrialSpec],
        count: Optional[int],
        window: int,
    ) -> Iterator[Any]:
        """Bounded-window streaming: batches via ``apply_async``, in order.

        At most ``window // batch`` batches are in flight, so specs are
        consumed at most about ``window`` ahead of the results yielded.
        Batches are sized so the window spreads across *every* worker
        (one batch per worker when the window allows), not clamped to the
        IPC-amortizing stream chunk — a window-sized slice of a large
        stream must still saturate the pool.  Dropping the generator waits
        out only those in-flight batches (bounded — the whole point), so
        the pool is never marked dirty and a following :meth:`close` stays
        graceful.
        """
        batch_size = max(
            1, min(self._chunk(count), window // self.workers, window)
        )
        max_batches = max(1, window // batch_size)
        pool = self._get_pool()
        worker = functools.partial(_run_batch, fn)
        spec_iter = iter(specs)
        pending: "deque[multiprocessing.pool.AsyncResult]" = deque()

        def submit() -> bool:
            batch = tuple(itertools.islice(spec_iter, batch_size))
            if not batch:
                return False
            pending.append(pool.apply_async(worker, (batch,)))
            return True

        try:
            while len(pending) < max_batches and submit():
                pass
            while pending:
                outcomes = pending.popleft().get()
                submit()
                for outcome in outcomes:
                    yield outcome.unwrap()
        finally:
            # Cancellation path: the feeder is this generator, so nothing
            # beyond ``pending`` was ever queued.  Wait the bounded
            # remainder out; workers are then idle and reusable.
            while pending:
                try:
                    pending.popleft().wait()
                except Exception:  # pragma: no cover - defensive
                    pass

    def close(self) -> None:
        """Graceful teardown: finish in-flight chunks, then join workers.

        Workers exit through their normal shutdown path (``atexit`` hooks,
        coverage flush).  A later ``map``/``stream`` transparently re-creates
        the pool.  Exception: after an abandoned stream the feeder thread
        has already queued every remaining spec — a graceful drain could
        take arbitrarily long — so a dirty pool falls through to
        :meth:`abort` (that abandonment *is* an error path).
        """
        if self._dirty:
            self.abort()
            return
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def abort(self) -> None:
        """Hard teardown for error paths: kill workers without waiting."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._dirty = False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.abort()
        except Exception:
            pass
