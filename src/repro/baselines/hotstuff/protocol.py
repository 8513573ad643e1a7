"""HotStuff deployment: the shared consensus deployment with HotStuff replicas."""

from __future__ import annotations

from ...core.deployment import ConsensusDeployment
from .replica import HotStuffReplica


class HotStuffDeployment(ConsensusDeployment):
    """One single-shot HotStuff consensus instance on a simulated network."""

    replica_class = HotStuffReplica
    seed_label = "hotstuff-deployment"
