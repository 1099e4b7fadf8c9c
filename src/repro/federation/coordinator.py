"""The global coordinator: owner of the versioned repository.

Section 5.1's "global controller", promoted to deployment scale: sites
handle their own devices end to end; the coordinator owns only what must
be fleet-wide -- the versioned :class:`SignatureRepository`.  Everything
it says to a site rides the WAN control channel, so partitions, latency
and loss come from the same seeded fault model every other experiment
uses.

Delivery model: accepted publications are **pushed** to every currently
reachable site (one WAN hop of lag -- the fleet-immunity propagation
bench E15 measures) and **pulled** by each site's periodic sync --
which is also how a partitioned site catches up in order after a heal.
The push is best-effort on purpose: the pull path is the correctness
mechanism, the push only shaves propagation lag.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.federation.repository import SignatureRepository

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.site import FederatedSite
    from repro.netsim.simulator import Simulator
    from repro.obs.stream import DeadLetterQueue
    from repro.sdn.channel import ControlChannel, ControlMessage


class GlobalCoordinator:
    """Owns the fleet-wide signature log."""

    NAME = "coordinator"

    def __init__(
        self,
        sim: "Simulator",
        wan: "ControlChannel",
        repository: SignatureRepository | None = None,
        dlq: "DeadLetterQueue | None" = None,
    ) -> None:
        self.sim = sim
        self.wan = wan
        self.repository = repository or SignatureRepository(sim, dlq=dlq)
        self.sites: dict[str, "FederatedSite"] = {}
        self.sync_requests = 0
        self.reports = 0
        wan.register(self.NAME, self._on_message)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register_site(self, site: "FederatedSite") -> None:
        """Adopt a site and attempt its first sync immediately.

        If the WAN is partitioned right now the site simply stays in the
        pre-sync state and its own sync loop completes the first sync
        after the heal -- registration never blocks."""
        self.sites[site.name] = site
        if self.wan.reachable(site.endpoint):
            self._send_updates(site.name, since=site.version)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def _on_message(self, message: "ControlMessage") -> None:
        if message.kind == "sync-request":
            self.sync_requests += 1
            site = str(message.body.get("site", ""))
            self._send_updates(site, since=int(message.body.get("version", 0)))
        elif message.kind == "sig-report":
            self.reports += 1
            origin = message.sender
            update = self.repository.publish(message.body.get("signature"), origin=origin)
            if update is not None:
                self._broadcast(update, exclude=origin)

    def _send_updates(self, site_name: str, since: int) -> None:
        site = self.sites.get(site_name)
        if site is None:
            return
        updates = [u.as_dict() for u in self.repository.updates_since(since)]
        self.wan.send(
            self.NAME,
            site.endpoint,
            "sync-updates",
            {"since": since, "updates": updates},
        )

    def _broadcast(self, update: "Any", exclude: str = "") -> int:
        """Push one accepted update to every reachable site."""
        body = update.as_dict()
        pushed = 0
        for site in self.sites.values():
            if site.endpoint == exclude:
                continue
            if self.wan.reachable(site.endpoint):
                self.wan.send(self.NAME, site.endpoint, "sig-push", body)
                pushed += 1
        return pushed

    # ------------------------------------------------------------------
    def converged(self) -> bool:
        """Every registered site has applied the full log."""
        version = self.repository.version
        return all(site.version == version for site in self.sites.values())

    def snapshot(self) -> dict[str, Any]:
        return {
            "version": self.repository.version,
            "sites": len(self.sites),
            "converged": self.converged(),
            "sync_requests": self.sync_requests,
            "reports": self.reports,
            "repository": self.repository.stats(),
        }
