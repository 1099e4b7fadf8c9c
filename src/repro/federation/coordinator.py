"""The global coordinator: owner of the fleet's signature log.

Section 5.1's "global controller", promoted to deployment scale: sites
handle their own devices end to end; the coordinator owns only what must
be fleet-wide -- one :class:`~repro.learning.repository.CrowdRepository`,
the same class every site keeps as its cache, whose versioned log the
sites replicate.  Everything it says to a site rides the WAN control
channel, so partitions, latency and loss come from the same seeded fault
model every other experiment uses.

Ingress: a ``sig-report`` is outside input, so it is checked whole
(:func:`~repro.learning.signatures.validate_signature`) before it may
consume a version.  A malformed or poisoned wire is quarantined to the
federation :class:`~repro.obs.stream.DeadLetterQueue` -- journaled,
bounded, inspectable -- and never enters the log, so it can never wedge a
site's replay cursor.

Delivery model: accepted publications are **pushed** to every currently
reachable site (one WAN hop of lag -- the fleet-immunity propagation
bench E15 measures) and **pulled** by each site's periodic sync --
which is also how a partitioned site catches up in order after a heal.
The push is best-effort on purpose: the pull path is the correctness
mechanism, the push only shaves propagation lag.  Every update on the
wire is ``{"version": v, "signature": wire}``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping

from repro.learning.repository import CrowdRepository
from repro.learning.signatures import AttackSignature, validate_signature
from repro.obs.stream import DeadLetterQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.federation.site import FederatedSite
    from repro.netsim.simulator import Simulator
    from repro.sdn.channel import ControlChannel, ControlMessage


class GlobalCoordinator:
    """Owns the fleet-wide signature log."""

    NAME = "coordinator"

    def __init__(self, sim: "Simulator", wan: "ControlChannel") -> None:
        self.sim = sim
        self.wan = wan
        self.repository = CrowdRepository(sim, free_rider_delay=0.0, base_delay=0.0)
        self.dlq = DeadLetterQueue(sim, name="federation")
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
            self._on_report(message.body.get("signature"), origin=message.sender)

    def _on_report(self, wire: Any, origin: str) -> None:
        """Version one reported wire and push it fleet-wide -- unless it is
        quarantined (invalid) or a duplicate (the same sku/flaw/match is
        already versioned: rediscovery at a second site must not
        re-broadcast)."""
        reason = validate_signature(wire)
        if reason is not None:
            body = wire if isinstance(wire, Mapping) else {"raw": repr(wire)}
            self.dlq.quarantine(
                {"body": {"device": "", "kind": "signature", **dict(body)}},
                reason=reason,
                host=origin,
            )
            return
        repository = self.repository
        if repository.publish(AttackSignature.from_dict(wire), reporter=origin) is None:
            return
        update = {"version": repository.version, "signature": repository.log[-1].to_dict()}
        for site in self.sites.values():
            # Best effort: a site that misses the push pulls the version.
            if site.endpoint != origin and self.wan.reachable(site.endpoint):
                self.wan.send(self.NAME, site.endpoint, "sig-push", update)

    def _send_updates(self, site_name: str, since: int) -> None:
        site = self.sites.get(site_name)
        if site is None:
            return
        updates = [
            {"version": version, "signature": signature.to_dict()}
            for version, signature in enumerate(
                self.repository.updates_since(since), start=max(0, since) + 1
            )
        ]
        self.wan.send(
            self.NAME,
            site.endpoint,
            "sync-updates",
            {"since": since, "updates": updates},
        )

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
            "quarantined": self.dlq.quarantined,
        }
