"""The ``validNewLeader`` and ``safeProposal`` predicates (paper §3.2).

::

    validNewLeader(⟨NewLeader, v, view, val, cert⟩_j)  <=>
        view < v  ∧  (view ≠ 0 ⇒ prepared(cert, view, val, j))

    safeProposal(⟨Propose, ⟨v, x⟩_j, M⟩_j)  <=>
        v ≥ 1 ∧ j = leader(v) ∧ valid(x) ∧ (v = 1 ∨
          (|M| ≥ ⌈(n+f+1)/2⌉ ∧ (∀m ∈ M: validNewLeader(m)) ∧
           (∃v_max = max prepared views in M ∧ x = mode of values at v_max)))

Correct replicas *redo the leader's computation* on the justification set
``M`` shipped inside the Propose message, so a Byzantine leader cannot
propose a value that contradicts what a (deterministic-quorum) majority
prepared in the latest view — this is what protects decisions across view
changes (Theorem 8).

Every correct replica receives the *same* Propose object, and with it the
same NewLeader envelopes, so :func:`valid_new_leader` stores its verdict in
the deployment's :class:`~repro.crypto.verdicts.VerdictMemo`: each
justification is validated once per deployment, not once per receiver.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..config import ProtocolConfig
from ..crypto.context import CryptoContext
from ..crypto.signatures import Signed
from ..messages.base import ProposalStatement
from ..messages.probft import NewLeader, Propose
from ..quorum.certificates import validate_prepared_certificate
from ..types import ReplicaId, ValidPredicate, View
from .leader import leader_of, max_prepared_view, mode_values

LeaderFn = Callable[[View, int], ReplicaId]


def valid_new_leader(
    signed: Signed,
    target_view: View,
    config: ProtocolConfig,
    crypto: CryptoContext,
    leader_fn: Optional[LeaderFn] = None,
) -> bool:
    """``validNewLeader`` over a signed NewLeader message for ``target_view``.

    ``leader_fn`` defaults to the config's offset-aware round-robin schedule
    (``leader_of``); pass an explicit ``(view, n) -> id`` callable to audit
    against a different schedule.

    Under the default schedule the verdict is a pure function of ``(signed,
    target_view, config, crypto)`` — the holder is ``signed.signer`` — so it
    is memoized per deployment in ``crypto.verdicts``: keyed on the
    envelope's identity and ``target_view``, with ``config``
    identity-checked on every hit.  An explicit ``leader_fn`` is an audit
    and always runs the full check.
    """
    if leader_fn is not None:
        return _check_new_leader(signed, target_view, config, crypto, leader_fn)
    return crypto.verdicts.verdict(
        ("new-leader", id(signed), target_view),
        signed,
        config,
        _check_new_leader,
        signed,
        target_view,
        config,
        crypto,
        leader_fn,
    )


def _check_new_leader(
    signed: Signed,
    target_view: View,
    config: ProtocolConfig,
    crypto: CryptoContext,
    leader_fn: Optional[LeaderFn],
) -> bool:
    """The unmemoized ``validNewLeader`` check behind :func:`valid_new_leader`."""
    if not crypto.signatures.verify(signed):
        return False
    msg = signed.payload
    if not isinstance(msg, NewLeader):
        return False
    if msg.view != target_view or msg.domain != config.seed_domain:
        return False
    if not msg.prepared_view < target_view:
        return False
    if msg.prepared_view == 0:
        # Never prepared: value must be absent and the certificate empty.
        return msg.prepared_value is None and not msg.cert
    if msg.prepared_value is None:
        return False
    return validate_prepared_certificate(
        cert=msg.cert,
        view=msg.prepared_view,
        value=msg.prepared_value,
        holder=signed.signer,
        config=config,
        signatures=crypto.signatures,
        vrf=crypto.vrf,
        leader_of_view=leader_fn,
    )


def _justification_is_quorum(
    justification: Tuple[Signed, ...], config: ProtocolConfig
) -> bool:
    """``|M| ≥ ⌈(n+f+1)/2⌉`` with distinct signers (a quorum, not a multiset)."""
    signers = {m.signer for m in justification}
    return len(signers) >= config.det_quorum and len(signers) == len(justification)


def safe_proposal(
    signed: Signed,
    config: ProtocolConfig,
    crypto: CryptoContext,
    valid: Optional[ValidPredicate] = None,
    leader_fn: Optional[LeaderFn] = None,
) -> bool:
    """``safeProposal`` over a signed Propose message."""
    if not crypto.signatures.verify(signed):
        return False
    propose = signed.payload
    if not isinstance(propose, Propose):
        return False
    view = propose.view
    if view < 1:
        return False
    expected_leader = (
        leader_fn(view, config.n) if leader_fn is not None else leader_of(view, config)
    )
    if signed.signer != expected_leader:
        return False
    # The inner statement must be consistent and signed by the same leader.
    statement = propose.statement
    if not crypto.signatures.verify(statement):
        return False
    inner = statement.payload
    if not isinstance(inner, ProposalStatement):
        return False
    if inner.view != view or statement.signer != expected_leader:
        return False
    if inner.domain != config.seed_domain:
        return False
    valid_fn = valid if valid is not None else config.valid
    if not valid_fn(inner.value):
        return False
    if view == 1:
        return True
    justification = propose.justification
    if justification is None:
        return False
    if not _justification_is_quorum(justification, config):
        return False
    for m in justification:
        if not valid_new_leader(m, view, config, crypto, leader_fn):
            return False
    payloads = [m.payload for m in justification]
    v_max = max_prepared_view(payloads)
    if v_max == 0:
        # Nobody prepared: any valid value is acceptable.
        return True
    candidates = [
        m.prepared_value
        for m in payloads
        if m.prepared_view == v_max and m.prepared_value is not None
    ]
    modes = mode_values(candidates)
    return inner.value in modes
