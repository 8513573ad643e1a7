"""PBFT deployment: the shared consensus deployment with PBFT replicas."""

from __future__ import annotations

from ...core.deployment import ConsensusDeployment
from .replica import PbftReplica


class PbftDeployment(ConsensusDeployment):
    """One single-shot PBFT consensus instance on a simulated network."""

    replica_class = PbftReplica
    seed_label = "pbft-deployment"
