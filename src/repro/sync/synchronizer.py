"""Wish-based view synchronizer.

Implements the synchronizer abstraction of Bravo, Chockler & Gotsman [6] with
Bracha-style amplification:

* when a replica's view timer expires it broadcasts ``Wish(v+1)``;
* on seeing wishes for a view ``v' > current`` from ``f+1`` distinct replicas
  it echoes ``Wish(v')`` (at least one wisher is correct, so joining is safe);
* on seeing wishes from ``2f+1`` distinct replicas it *enters* ``v'`` and
  notifies the protocol via ``newView(v')``.

Per-sender we track only the *highest* view wished, so the state is O(n),
plus a histogram of how many senders' highest wish is each view, so the
relay/enter rules scan the few distinct views instead of sorting all ``n``
wishes on every received wish.
After GST, if any correct replica is stuck, timers eventually fire, wishes
amplify, and all correct replicas converge to a common view with a timeout
long enough to decide (given a growing :class:`TimeoutPolicy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..crypto.signatures import SignatureScheme, Signed
from ..messages.base import CanonicalMessage
from ..net.transport import Transport
from ..types import ReplicaId, View
from .timeouts import ExponentialTimeout, TimeoutPolicy


@dataclass(frozen=True)
class Wish(CanonicalMessage):
    """A signed declaration "I want to enter view ``view``".

    ``domain`` scopes the wish to one consensus instance (SMR slots).
    """

    TYPE = "Wish"

    view: View
    domain: str = ""


class ViewSynchronizer:
    """Per-replica synchronizer endpoint.

    Args:
        transport: the replica's network endpoint.
        f: fault threshold (relay at ``f+1`` wishes, enter at ``2f+1``).
        signatures: signing service (wishes are signed like everything else).
        on_new_view: protocol callback, the paper's ``newView(v)`` upcall.
        timeout_policy: per-view duration budget.

    The synchronizer starts in view 0 (no view); call :meth:`start` to enter
    view 1 locally and arm the first timer.
    """

    def __init__(
        self,
        transport: Transport,
        f: int,
        signatures: SignatureScheme,
        on_new_view: Callable[[View], None],
        timeout_policy: Optional[TimeoutPolicy] = None,
        domain: str = "",
    ) -> None:
        self._transport = transport
        self._f = f
        self._signatures = signatures
        self._on_new_view = on_new_view
        self._timeouts = timeout_policy or ExponentialTimeout()
        self._domain = domain
        self._current_view: View = 0
        self._max_wish_sent: View = 0
        self._highest_wish: Dict[ReplicaId, View] = {}
        # view -> number of replicas whose highest wish is exactly that view.
        self._wish_count: Dict[View, int] = {}
        self._timer = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def current_view(self) -> View:
        return self._current_view

    def start(self) -> None:
        """Enter view 1 and arm its timer (every replica calls this at t=0)."""
        self._enter_view(1)

    def stop(self) -> None:
        """Stop all timers (simulation teardown)."""
        self._stopped = True
        self._cancel_timer()

    def on_wish(self, src: ReplicaId, signed: Signed) -> None:
        """Handle a received (signed) wish message."""
        if self._stopped or not self._signatures.verify(signed):
            return
        wish = signed.payload
        if not isinstance(wish, Wish) or signed.signer != src:
            return
        if wish.domain != self._domain:
            return
        if wish.view <= self._highest_wish.get(src, 0):
            return
        self._raise_wish(src, wish.view)
        self._react_to_wishes()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _react_to_wishes(self) -> None:
        """Apply the f+1 relay and 2f+1 enter rules for the best candidate."""
        relay_view = self._kth_highest_wish(self._f + 1)
        if relay_view is not None and relay_view > self._max_wish_sent:
            self._send_wish(relay_view)
        enter_view = self._kth_highest_wish(2 * self._f + 1)
        if enter_view is not None and enter_view > self._current_view:
            self._enter_view(enter_view)

    def _raise_wish(self, replica: ReplicaId, view: View) -> None:
        """Record ``view`` as ``replica``'s new (higher) highest wish."""
        counts = self._wish_count
        previous = self._highest_wish.get(replica)
        if previous is not None:
            left = counts[previous] - 1
            if left:
                counts[previous] = left
            else:
                del counts[previous]
        self._highest_wish[replica] = view
        counts[view] = counts.get(view, 0) + 1

    def _kth_highest_wish(self, k: int) -> Optional[View]:
        """Largest view wished-for by at least ``k`` distinct replicas: the
        ``k``-th largest of the per-replica highest wishes."""
        if len(self._highest_wish) < k:
            return None
        counts = self._wish_count
        for view in sorted(counts, reverse=True):
            k -= counts[view]
            if k <= 0:
                return view
        return None  # unreachable: the counts sum to len(_highest_wish)

    def _send_wish(self, view: View) -> None:
        self._max_wish_sent = view
        signed = self._signatures.sign(
            self._transport.replica, Wish(view=view, domain=self._domain)
        )
        # A wish counts for its own sender too.
        me = self._transport.replica
        if view > self._highest_wish.get(me, 0):
            self._raise_wish(me, view)
        self._transport.broadcast(signed)
        self._react_to_wishes()

    def _enter_view(self, view: View) -> None:
        self._current_view = view
        self._cancel_timer()
        duration = self._timeouts.timeout_for(view)
        self._timer = self._transport.schedule(
            duration, lambda v=view: self._on_timeout(v)
        )
        self._on_new_view(view)

    def _on_timeout(self, view: View) -> None:
        if self._stopped or view != self._current_view:
            return
        wish_for = self._current_view + 1
        if wish_for > self._max_wish_sent:
            self._send_wish(wish_for)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
