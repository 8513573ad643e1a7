"""Sparse delivery policies — the scaling seam for `Network` fan-outs.

Dense mode (the default, ``policy=None``) schedules one simulator event per
``(message, recipient)`` pair; at n≥500 the per-event python cost (heap push
and pop, one closure, per-delivery stats) dominates a trial.  A
:class:`SparseDeliveryPolicy` attached via :meth:`Network.use_delivery_policy`
switches ``multicast``/``broadcast`` to a *coalesced* fan-out: one simulator
event per distinct delivery time, delivering to every recipient in that time
bucket, with send stats recorded in bulk.

Equivalence contract (what makes sparse == dense bit-identical):

* **RNG order** — latency, chaos, and duplication draws are made per target
  in exactly dense's target order, whether or not a target is ultimately
  suppressed, so every seeded stream stays in lock-step with dense mode.
* **Event order** — the kernel breaks time ties by scheduling order.  Dense
  schedules recipients in target order; the coalesced buckets are created in
  first-seen order and deliver their recipients in target order, so the
  interleaving of deliveries (and of everything they trigger) is unchanged.
* **Stop granularity** — dense checks ``stop_when`` between deliveries; a
  coalesced event would overshoot, so the fan-out consults
  ``Network.stop_probe`` between recipients and abandons the remainder of
  the bucket once it trips.
* **Suppression soundness** — ``batch_filter(message, dsts)`` runs at
  event *fire* time, not send time.  Deliveries are strictly future, so any
  state ``dst`` holds at fire time was caused by messages sent strictly
  earlier; the policy's view of ``dst`` is current when it rules a delivery
  unobservable.

The base policy suppresses nothing — pure event coalescing, safe for any
protocol whose handlers do not depend on the *number* of simulator events
(none of ours do).  Protocol-aware policies (e.g. ProBFT's sample
observation policy in :mod:`repro.core.observation`) additionally prune
deliveries the recipient provably ignores.
"""

from __future__ import annotations

from ..types import ReplicaId


class SparseDeliveryPolicy:
    """Coalesce fan-out events; subclasses may also prune deliveries.

    ``inspect`` sees every message entering the network (unicast included)
    so the policy can track protocol state — e.g. conflicting leader
    statements — before ruling on observability.  ``batch_filter`` is the
    fire-time verdict; keeping every recipient is the conservative
    (dense-equivalent) answer.
    """

    def inspect(self, src: ReplicaId, message: object) -> None:
        """Observe a message at send time (default: no-op)."""

    def batch_filter(self, message: object, dsts: list) -> list:
        """The subset of one bucket's ``dsts`` whose protocol state may
        change if ``message`` arrives now, in order (default: all of them).

        :meth:`Network._deliver_fanout` calls this once per coalesced
        bucket.  Pre-filtering is equivalent to interleaved evaluation
        because delivering to one recipient never synchronously mutates
        another (every send schedules a strictly-future event).
        """
        return dsts
