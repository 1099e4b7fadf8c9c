"""The in-process federation harness: N sites, one coordinator, one sim.

This is the *semantics* half of the federation (the scale half is
:mod:`repro.federation.runner`): every site's deployment shares one
simulator and one WAN control channel, so cross-site effects -- signature
propagation lag, coordinator blackouts, autonomy spells, in-order
catch-up -- play out in a single deterministic event order that tests
and the E15 bench can assert on exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.deployment import SiteSpec
from repro.federation.coordinator import GlobalCoordinator
from repro.federation.site import FederatedSite
from repro.netsim.simulator import Simulator
from repro.sdn.channel import ControlChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.health import HealthPlane

#: A federation WAN hop is tens of milliseconds -- the paper's cloud
#: controller distance, an order above the on-premise control channel.
WAN_LATENCY = 0.040


class Federation:
    """Builder/owner of coordinator + sites on one shared simulator."""

    def __init__(
        self,
        sim: Simulator | None = None,
        wan_latency: float = WAN_LATENCY,
        sync_period: float = 5.0,
    ) -> None:
        self.sim = sim or Simulator()
        self.sync_period = sync_period
        self.wan = ControlChannel(self.sim, latency=wan_latency)
        self.coordinator = GlobalCoordinator(self.sim, self.wan)
        self.sites: dict[str, FederatedSite] = {}
        self.health_plane: "HealthPlane | None" = None

    # ------------------------------------------------------------------
    def add_site(self, name: str, spec: SiteSpec = SiteSpec()) -> FederatedSite:
        """Deploy ``spec`` as site ``name`` on the shared sim."""
        if name in self.sites:
            raise ValueError(f"duplicate site name {name!r}")
        site = FederatedSite(
            name,
            spec.deploy(self.sim),
            self.wan,
            coordinator=self.coordinator.NAME,
            sync_period=self.sync_period,
        )
        self.sites[name] = site
        return site

    def start(self) -> None:
        """Register every site with the coordinator and start sync loops."""
        for site in self.sites.values():
            self.coordinator.register_site(site)
            site.start()

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def blackout(self, start: float, end: float) -> None:
        """Partition the whole WAN (coordinator unreachable from every
        site, and vice versa) for ``[start, end)`` simulated seconds."""
        self.wan.partition(start, end)

    # ------------------------------------------------------------------
    # Health integration (PR-8 plane)
    # ------------------------------------------------------------------
    def attach_health(self, period: float = 1.0) -> "HealthPlane":
        """Start a health plane with the federation subsystem probe.

        Degraded while any site runs autonomously on cached policy;
        critical while any started site still awaits its first sync
        (that is the one state with a real enforcement gap)."""
        from repro.obs.health import HEALTH_CRITICAL, HEALTH_DEGRADED, HealthPlane, Probe
        from repro.obs.slo import Reading

        metrics = self.sim.metrics
        sites = self.sites.values()
        metrics.gauge("federation_unsynced_sites", fn=lambda: sum(not s.first_synced for s in sites))
        metrics.gauge("federation_autonomous_sites", fn=lambda: sum(s.autonomous for s in sites))
        plane = HealthPlane(self.sim, period=period, root=self)
        plane.add(Probe("federation", (
            (HEALTH_CRITICAL, Reading("federation_unsynced_sites", limit=0),
             "{federation_unsynced_sites} site(s) awaiting first sync"),
            (HEALTH_DEGRADED, Reading("federation_autonomous_sites", limit=0),
             "{federation_autonomous_sites} site(s) autonomous on cached policy"),
        )))  # fmt: skip
        plane.start()
        self.health_plane = plane
        return plane

    # ------------------------------------------------------------------
    def propagation_lag(self, version: int) -> float | None:
        """Worst-case sim-time from publication of ``version`` to its
        application at the last site; ``None`` until fully propagated."""
        log = self.coordinator.repository.log
        if not 1 <= version <= len(log):
            return None
        applied = []
        for site in self.sites.values():
            at = site.applied_at.get(version)
            if at is None:
                return None
            applied.append(at)
        return max(applied) - log[version - 1].reported_at

    def run(self, until: float | None = None) -> None:
        self.sim.run(until=until)

    def snapshot(self) -> dict[str, Any]:
        return {
            "coordinator": self.coordinator.snapshot(),
            "sites": [site.snapshot() for site in self.sites.values()],
        }
