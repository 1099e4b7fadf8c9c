"""Federated multi-site control plane (ROADMAP item: scaling §5.1 out).

One :class:`GlobalCoordinator` owns the fleet's signature log, a
:class:`~repro.learning.repository.CrowdRepository` whose accepted
signatures carry contiguous versions; each :class:`FederatedSite` wraps a
full :class:`SecuredDeployment` slice and replicates that log, version by
version, into its own repository of the same class over a WAN control
channel that can partition.  Sites require one successful first sync,
then enforce autonomously on cached policy for as long as the
coordinator stays unreachable -- the E11 fleet-immunity story at
deployment scale.

:class:`Federation` composes the pieces on one shared simulator (the
semantics harness: propagation lag, partitions, autonomy transitions);
:mod:`repro.federation.runner` shards a fleet into per-site worker
processes for E9-class load beyond one core (bench E15).
"""

from repro.federation.coordinator import GlobalCoordinator
from repro.federation.federation import Federation
from repro.federation.runner import run_federation, run_site_worker, shard_fleet
from repro.federation.site import FederatedSite

__all__ = [
    "Federation",
    "FederatedSite",
    "GlobalCoordinator",
    "run_federation",
    "run_site_worker",
    "shard_fleet",
]
