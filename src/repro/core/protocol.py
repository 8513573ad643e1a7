"""Deployment wiring: run a ProBFT consensus instance on a simulated network.

:class:`ProBFTDeployment` is the shared
:class:`~repro.core.deployment.ConsensusDeployment` with ProBFT's replica and
seed label, plus the wiring only ProBFT has: the scale stack (sample-aware
sparse delivery over columnar vote arrays) and gossip dissemination of the
leader's proposal.
"""

from __future__ import annotations

from typing import Optional

from ..config import ProtocolConfig
from .deployment import ConsensusDeployment
from .replica import ProBFTReplica


class ProBFTDeployment(ConsensusDeployment):
    """One ProBFT consensus instance: n replicas, a network, and a clock.

    ``trace=True`` makes every honest replica record its protocol trace.

    Example:
        >>> from repro.config import ProtocolConfig
        >>> dep = ProBFTDeployment(ProtocolConfig(n=20, f=3))
        >>> result = dep.run()
        >>> dep.agreement_ok and dep.all_correct_decided()
        True
    """

    replica_class = ProBFTReplica
    seed_label = "deployment"

    def __init__(
        self, config: ProtocolConfig, *, trace: bool = False, **kwargs
    ) -> None:
        self._trace = trace
        super().__init__(config, **kwargs)

    def _replica_kwargs(self) -> dict:
        # Scale stack: one shared set of columnar vote arrays for every
        # correct replica; the per-replica collector tables become facades
        # over it.  Imported here so dense runs never load numpy.
        if self.sparse:
            from . import columnar

            self._columnar_state = columnar.ColumnarVoteState(
                self.config.n, self.config.q, self._correct_ids
            )
        else:
            self._columnar_state = None
        return {"trace": self._trace, "columnar_state": self._columnar_state}

    def _gossip(self, fanout: Optional[int], rounds: Optional[int]) -> object:
        from ..net.gossip import GossipDisseminator

        return GossipDisseminator(
            self.network,
            self.config.n,
            self.seed,
            fanout=fanout,
            rounds=rounds,
            byzantine_ids=self.byzantine_ids,
        )

    def _use_sparse_delivery(self, dup_possible: bool) -> None:
        from .columnar import ColumnarVoteDispatch
        from .observation import SampleObservationPolicy

        policy = SampleObservationPolicy(
            self.config, self.byzantine_ids, self.replicas
        )
        self.network.use_delivery_policy(policy)
        for r in self._correct_ids:
            self.network.register_batch(r, self.replicas[r].on_sample_message)
        self.network.use_bulk_handler(
            ColumnarVoteDispatch(
                self.config,
                self.crypto,
                self.replicas,
                self._correct_ids,
                self.network._handlers,
                policy,
                self._columnar_state,
                dup_possible=dup_possible,
            )
        )
