"""Outside-in layer tracing: wrap each layer's public entry points.

The tracer never edits the program.  :func:`install` replaces a fixed set
of public functions and methods of ``repro`` with timing wrappers for the
duration of a ``with`` block and restores the originals on exit.  Every
wrapped call is a *span*; spans nest on one stack, so a span's **self
time** is its duration minus the time covered by the spans it called.

Per span name the tracer keeps call count, total (inclusive) time, self
time and optional per-name counters; per (caller, callee) pair it keeps a
call count, so the report shows which layer reached which.  Individual
spans are not retained: one ``consensus-faults`` trial makes millions of
verify calls, so the tracer aggregates at the boundary instead.

Caveats the wrapper set handles:

* methods are often bound at deployment construction (network handlers,
  the bulk vote kernel), so wrappers must be installed before any
  deployment is built;
* ``validate_prepared_certificate`` is looked up as a module global in
  ``repro.core.predicates`` and ``repro.core.invariants``, so it is patched
  there as well as at its definition;
* ``CryptoContext.pooled`` is a ``staticmethod`` and is re-installed as one.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class SpanStats:
    """Aggregates of every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: Dict[str, float] = {}

    def bump(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


class Tracer:
    """A span stack with per-name aggregation.

    ``clock`` is injectable so the self-time arithmetic can be tested with
    a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, SpanStats] = {}
        self.edges: Dict[Tuple[str, str], int] = {}
        # One frame per open span: [name, time covered by finished children].
        self._stack: List[list] = []

    def stat(self, name: str) -> SpanStats:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = SpanStats()
        return entry

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else "<root>"
        edge = (parent, name)
        self.edges[edge] = self.edges.get(edge, 0) + 1
        self._stack.append([name, 0.0, self.clock()])

    def exit(self) -> float:
        """Close the innermost span; returns its duration."""
        name, children, start = self._stack.pop()
        duration = self.clock() - start
        entry = self.stat(name)
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - children
        if self._stack:
            self._stack[-1][1] += duration
        return duration

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[SpanStats, tuple, dict, object], None]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``observe(stats, args, kwargs,
        result)`` may bump counters from the call's arguments and result."""
        enter, exit_, stat = self.enter, self.exit, self.stat

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if observe is not None:
                observe(stat(name), args, kwargs, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        entry = self.stats.get(name)
        return entry.calls if entry else 0

    def self_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry.self_s if entry else 0.0

    def total_s(self, name: str) -> float:
        entry = self.stats.get(name)
        return entry.total_s if entry else 0.0

    def counter(self, name: str, counter: str) -> float:
        entry = self.stats.get(name)
        return entry.counters.get(counter, 0) if entry else 0

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                **s.counters,
            }
            for name, s in sorted(self.stats.items())
        }


# ----------------------------------------------------------------------
# Observers: counters measured where the work happens.
# ----------------------------------------------------------------------
def _count_false(stats: SpanStats, _args: tuple, _kwargs: dict, result) -> None:
    if result is False:
        stats.bump("false")


def _observe_dispatch(stats: SpanStats, args: tuple, _kwargs: dict, result) -> None:
    # ColumnarVoteDispatch.__call__(self, src, message, dsts, probe)
    stats.bump("recipients", len(args[3]))
    if result == -1:
        stats.bump("declined")


def _distinct_certificates() -> Callable:
    """Observer counting distinct certificate objects validated.  Seen
    certificates stay pinned, so an ``id`` cannot be recycled into a false
    repeat."""
    seen: Dict[int, object] = {}

    def observe(stats: SpanStats, args: tuple, kwargs: dict, _result) -> None:
        cert = kwargs["cert"] if "cert" in kwargs else args[0]
        if id(cert) not in seen:
            seen[id(cert)] = cert
            stats.bump("distinct")

    return observe


def _pooled_wrapper(tracer: Tracer, fn: Callable, pool_stats: Callable) -> Callable:
    name = "crypto.pooled"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        misses = pool_stats()["misses"]
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit()
        if pool_stats()["misses"] > misses:
            entry = tracer.stat(name)
            entry.bump("misses")
            entry.bump("build_s", duration)
        return result

    return traced


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer entry point for the duration of the block."""
    from repro.core import columnar, invariants, predicates, replica
    from repro.crypto import context, signatures, vrf
    from repro.harness import trial
    from repro.net import network, simulator
    from repro.quorum import certificates
    from repro import quorum
    from repro.smr import log, replica as smr_replica, service, workload
    from repro.sync import synchronizer

    saved: List[Tuple[object, str, object]] = []

    def patch(owner: object, attr: str, replacement: object) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def method(owner: type, attr: str, name: str, observe=None) -> None:
        patch(owner, attr, tracer.wrap(name, owner.__dict__[attr], observe))

    method(trial.DeploymentSpec, "build", "harness.build")
    patch(
        workload,
        "build_serving_deployment",
        tracer.wrap("harness.build", workload.build_serving_deployment),
    )
    method(simulator.Simulator, "run", "simulator.run")
    method(network.Network, "send", "network.send")
    method(network.Network, "multicast", "network.multicast")
    method(network.Network, "broadcast", "network.multicast")
    method(
        columnar.ColumnarVoteDispatch,
        "__call__",
        "columnar.dispatch",
        _observe_dispatch,
    )
    method(replica.ProBFTReplica, "on_message", "replica.on_message")
    method(replica.ProBFTReplica, "on_sample_message", "replica.on_message")
    patch(
        predicates,
        "valid_new_leader",
        tracer.wrap("predicates.valid_new_leader", predicates.valid_new_leader),
    )
    patch(
        predicates,
        "safe_proposal",
        tracer.wrap("predicates.safe_proposal", predicates.safe_proposal),
    )
    validate = tracer.wrap(
        "quorum.validate_prepared_certificate",
        certificates.validate_prepared_certificate,
        _distinct_certificates(),
    )
    for owner in (certificates, quorum, predicates, invariants):
        patch(owner, "validate_prepared_certificate", validate)
    method(signatures.MemoizedSignatureScheme, "sign", "crypto.sign")
    method(
        signatures.MemoizedSignatureScheme, "verify", "crypto.verify", _count_false
    )
    method(vrf.MemoizedVRF, "prove", "crypto.vrf_prove")
    method(vrf.MemoizedVRF, "verify", "crypto.vrf_verify", _count_false)
    patch(
        context.CryptoContext,
        "pooled",
        staticmethod(
            _pooled_wrapper(
                tracer,
                context.CryptoContext.__dict__["pooled"].__func__,
                context.crypto_pool_stats,
            )
        ),
    )
    method(synchronizer.ViewSynchronizer, "on_wish", "sync.on_wish")
    method(service.SMRDeployment, "submit_to_all", "smr.submit", _count_false)
    method(smr_replica.SMRReplica, "on_message", "smr.replica_on_message")
    method(log.DecisionLog, "record", "smr.log_record")
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
