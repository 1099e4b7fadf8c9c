"""One federated site: a full deployment slice plus a sync state machine.

A site wraps a :class:`~repro.core.deployment.SecuredDeployment` (which
may itself run PR-5 hot-standby HA and PR-7 durable streams -- the site
does not care) and adds the federation contract:

- a **local signature cache**: a :class:`CrowdRepository`, the same class
  as the coordinator's log, wired into the site's IDS µmboxes via
  ``attach_repository`` and fed only by the coordinator's versions and
  the site's own discoveries;
- a **replay cursor**: the site applies only the coordinator's *next*
  version.  A duplicate (at or below the cursor) is dropped, and a version
  past the next one means a best-effort push was lost -- it counts as a
  ``gap`` and the periodic pull replays the contiguous suffix instead.
  Updates from any WAN sender but the coordinator are ``refused`` and
  journaled (``signature-refused``);
- a **sync loop** that pulls ``updates_since(version)`` from the
  coordinator over the WAN channel every ``sync_period`` seconds;
- **signature reports** on the site's reliable lane to the coordinator:
  a locally mined signature is reported at once, and the lane re-sends it
  until the coordinator acknowledges it, however long the WAN is dark;
- the **autonomy state machine**: first sync required, then the site
  keeps enforcing on cached policy for as long as the coordinator is
  unreachable.  Transitions are journaled (``site-autonomy-enter`` /
  ``site-autonomy-exit``) so the PR-8 health plane and the incident
  reconstructor see every offline spell.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.learning.repository import CrowdRepository
from repro.learning.signatures import AttackSignature

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment
    from repro.sdn.channel import ControlChannel, ControlMessage


class FederatedSite:
    """A per-site controller slice under the global coordinator."""

    def __init__(
        self,
        name: str,
        deployment: "SecuredDeployment",
        wan: "ControlChannel",
        coordinator: str = "coordinator",
        sync_period: float = 5.0,
    ) -> None:
        if sync_period <= 0:
            raise ValueError(f"sync_period must be positive (got {sync_period})")
        self.sim = sim = deployment.sim
        self.name = name
        self.dep = deployment
        self.wan = wan
        self.coordinator = coordinator
        self.sync_period = sync_period
        #: Local signature cache: the site's IDS µmboxes subscribe to it.
        #: Within one administrative site there are no free riders and no
        #: extra distribution delay -- those model the *global* repository
        #: (E11); the WAN latency/partition model covers the federation.
        self.cache = CrowdRepository(sim, free_rider_delay=0.0, base_delay=0.0)
        deployment.attach_repository(self.cache)

        #: Replay cursor: the highest global version applied here.
        self.version = 0
        self.first_synced = False
        self.first_synced_at: float | None = None
        self.autonomous = False
        self._autonomy_entered_at = 0.0
        #: Version -> simulated apply time (propagation-lag measurement).
        self.applied_at: dict[int, float] = {}
        self.applied = 0
        self.duplicates = 0
        self.gaps = 0
        self.refused = 0
        self.out_of_order = 0
        self.autonomy_spells = 0
        self.offline_s = 0.0
        self._started = False

        wan.register(self.endpoint, self._on_message)

    @property
    def endpoint(self) -> str:
        """This site's address on the WAN control channel."""
        return f"site:{self.name}"

    # ------------------------------------------------------------------
    # Applying coordinator updates
    # ------------------------------------------------------------------
    def apply_updates(self, updates: Iterable[Mapping[str, Any]]) -> int:
        """Apply a batch of versioned updates; returns how many were new.

        Only ``cursor + 1`` is applied.  Versions at or below the cursor
        are duplicates (at-least-once WAN delivery); a version beyond the
        next one is a ``gap`` left for the pull, so the cursor never skips
        an entry.  A version that *regresses* within the batch counts as
        ``out_of_order`` -- zero under the in-order replay contract, so
        tests pin it.
        """
        fresh = 0
        last_seen = None
        for update in updates:
            version = int(update.get("version", 0))
            if last_seen is not None and version <= last_seen:
                self.out_of_order += 1
            last_seen = version
            if version <= self.version:
                self.duplicates += 1
                continue
            if version > self.version + 1:
                self.gaps += 1
                continue
            signature = AttackSignature.from_dict(update["signature"])
            self.cache.publish(signature, reporter=signature.reporter)
            self.version = version
            self.applied_at[version] = self.sim.now
            self.applied += 1
            fresh += 1
        return fresh

    def _on_message(self, message: "ControlMessage") -> None:
        if message.sender != self.coordinator:
            # The site replicates one log: a peer (or anyone else on the
            # WAN) offering updates would bypass the coordinator's ingress
            # checks and could wedge the cursor with a forged version.
            self.refused += 1
            self.sim.journal.record(
                "signature-refused", site=self.name, sender=message.sender, msg_kind=message.kind
            )
            return
        if message.kind == "sync-updates":
            from_version = int(message.body.get("since", 0))
            fresh = self.apply_updates(message.body.get("updates", ()))
            if not self.first_synced:
                self.first_synced = True
                self.first_synced_at = self.sim.now
            if fresh or from_version < self.version:
                self.sim.journal.record(
                    "signature-sync",
                    site=self.name,
                    from_version=from_version,
                    to_version=self.version,
                    applied=fresh,
                )
            if self.autonomous:
                self._exit_autonomy()
        elif message.kind == "sig-push":
            # Live broadcast of one accepted publication.
            self.apply_updates([message.body])

    # ------------------------------------------------------------------
    # Local discovery
    # ------------------------------------------------------------------
    def mined(self, wire: Mapping[str, Any]) -> None:
        """The site learned a signature locally: enforce it here *now*,
        and report it to the coordinator on the site's reliable lane.

        Local enforcement never waits on the WAN -- during a coordinator
        blackout the discovery protects this site immediately, and the
        lane holds the report until the coordinator acknowledges it."""
        self.cache.publish(AttackSignature.from_dict(wire), reporter=self.name)
        self.wan.send(
            self.endpoint, self.coordinator, "sig-report", {"signature": dict(wire)}, reliable=True
        )

    # ------------------------------------------------------------------
    # The sync loop & autonomy
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic coordinator sync (idempotent)."""
        if self._started:
            return
        self._started = True
        self.sim.every(self.sync_period, self.sync_tick)

    def sync_tick(self) -> None:
        if not self.wan.reachable(self.coordinator):
            # Declarative partition: don't burn doomed sends, just note
            # the offline spell.  A site that never completed its first
            # sync cannot enter autonomy -- it has no cached policy yet.
            if self.first_synced and not self.autonomous:
                self._enter_autonomy()
            return
        self.wan.send(
            self.endpoint,
            self.coordinator,
            "sync-request",
            {"site": self.name, "version": self.version},
        )

    def _enter_autonomy(self) -> None:
        self.autonomous = True
        self._autonomy_entered_at = self.sim.now
        self.autonomy_spells += 1
        self.sim.journal.record(
            "site-autonomy-enter",
            site=self.name,
            version=self.version,
            cached_signatures=len(self.cache.signatures),
        )

    def _exit_autonomy(self) -> None:
        spell = self.sim.now - self._autonomy_entered_at
        self.autonomous = False
        self.offline_s += spell
        self.sim.journal.record(
            "site-autonomy-exit",
            site=self.name,
            version=self.version,
            offline_s=round(spell, 6),
        )

    # ------------------------------------------------------------------
    @property
    def enforcing(self) -> bool:
        """Whether this site's control loop is live on (cached) policy.

        True from the first successful sync onward, through any number
        of coordinator partitions, for as long as the site controller is
        up -- the partition-tolerance property bench E15 asserts."""
        controller = self.dep.controller
        return (
            self.first_synced
            and controller is not None
            and not getattr(controller, "crashed", False)
        )

    def snapshot(self) -> dict[str, Any]:
        return {
            "site": self.name,
            "version": self.version,
            "first_synced": self.first_synced,
            "autonomous": self.autonomous,
            "enforcing": self.enforcing,
            "applied": self.applied,
            "duplicates": self.duplicates,
            "gaps": self.gaps,
            "refused": self.refused,
            "out_of_order": self.out_of_order,
            "autonomy_spells": self.autonomy_spells,
            "offline_s": round(self.offline_s, 6),
            "cached_signatures": len(self.cache.signatures),
            "devices": len(self.dep.devices),
        }
