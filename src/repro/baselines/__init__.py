"""Baseline protocols the paper compares against (Figure 1).

* :mod:`repro.baselines.pbft` — single-shot PBFT [12] as presented in [6]:
  deterministic quorums, all-to-all Prepare/Commit, 3 communication steps,
  ``O(n²)`` messages.
* :mod:`repro.baselines.hotstuff` — single-shot basic HotStuff [58]:
  leader-to-all-to-leader phases, linear messages, ~8 communication steps.

Both deployments are :class:`repro.core.deployment.ConsensusDeployment`
with their own replica class, so they run through exactly ProBFT's
simulator, network, crypto and stop-rule wiring.
"""

from .pbft.replica import PbftReplica
from .pbft.protocol import PbftDeployment
from .hotstuff.replica import HotStuffReplica
from .hotstuff.protocol import HotStuffDeployment

__all__ = [
    "PbftReplica",
    "PbftDeployment",
    "HotStuffReplica",
    "HotStuffDeployment",
]
