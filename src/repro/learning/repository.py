"""The anonymous crowdsourced signature repository.

Section 4.1: "we envision a crowdsourced repository that allows users who
have deployed a specific IoT device SKU to share attack signatures ... The
repository would offer a simple publish-subscribe interface."

Design points, each answering one of the paper's three challenges:

- *Incentives*: contributors get **priority notification** -- their
  subscriptions are served with zero added delay, non-contributors after
  ``free_rider_delay`` simulated seconds.
- *Privacy*: every report passes through the :class:`Anonymizer` before it
  is stored or distributed.
- *Data quality*: distribution is gated by the :class:`ReputationSystem`;
  signatures whose confidence falls below threshold (e.g. after down-votes)
  are withheld and, if already distributed, revoked.

Every accepted (non-duplicate) signature also gets the next contiguous
**version**: ``log[i]`` is version ``i + 1``.  That log is what the
federation replicates -- the coordinator keeps one of these repositories,
and each site replays ``updates_since(its cursor)`` into its own.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.learning.anonymize import Anonymizer
from repro.learning.reputation import ReputationSystem
from repro.learning.signatures import AttackSignature

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

SignatureCallback = Callable[[AttackSignature], None]


@dataclass
class Subscription:
    subscriber: str
    sku: str
    callback: SignatureCallback


class CrowdRepository:
    """Publish/subscribe attack-signature sharing, keyed by SKU."""

    def __init__(
        self,
        sim: "Simulator",
        reputation: ReputationSystem | None = None,
        anonymizer: Anonymizer | None = None,
        free_rider_delay: float = 300.0,
        base_delay: float = 1.0,
    ) -> None:
        self.sim = sim
        self.reputation = reputation or ReputationSystem()
        self.anonymizer = anonymizer or Anonymizer()
        self.free_rider_delay = free_rider_delay
        self.base_delay = base_delay
        self.signatures: dict[int, AttackSignature] = {}
        self._by_sku: dict[str, list[int]] = defaultdict(list)
        self._subscriptions: list[Subscription] = []
        self._contributors: set[str] = set()
        self._seen_keys: dict[tuple, int] = {}
        self._revoked: set[int] = set()
        #: Accepted signatures in publication order; entry i is version i+1.
        self.log: list[AttackSignature] = []
        self.duplicates = 0
        self.withheld = 0

    # ------------------------------------------------------------------
    # Publish
    # ------------------------------------------------------------------
    def publish(self, signature: AttackSignature, reporter: str) -> int | None:
        """Submit a signature.  Returns its id, or None when deduplicated.

        The reporter's raw identity never leaves this call: the stored and
        distributed copies carry the pseudonym.
        """
        signature.reporter = reporter
        scrubbed = self.anonymizer.scrub(signature)
        scrubbed.reported_at = self.sim.now
        key = scrubbed.key()
        if key in self._seen_keys:
            self.duplicates += 1
            # Duplicate confirmation counts as a validation of the original.
            original = self.signatures[self._seen_keys[key]]
            self.reputation.feedback(original.reporter, validated=True)
            return None
        self._seen_keys[key] = scrubbed.sig_id
        self.signatures[scrubbed.sig_id] = scrubbed
        self._by_sku[scrubbed.sku].append(scrubbed.sig_id)
        self._contributors.add(scrubbed.reporter)
        self.log.append(scrubbed)
        self._distribute(scrubbed)
        return scrubbed.sig_id

    @property
    def version(self) -> int:
        """The latest assigned version (0 = empty log)."""
        return len(self.log)

    def updates_since(self, version: int) -> list[AttackSignature]:
        """Every accepted signature with a version above ``version``, in
        version order (the log is append-only and contiguous)."""
        return self.log[max(0, version):]

    def _distribute(self, signature: AttackSignature) -> None:
        if not self.reputation.accepted(signature.sig_id, signature.reporter):
            self.withheld += 1
            return
        signature.confidence = self.reputation.confidence(
            signature.sig_id, signature.reporter
        )
        for sub in self._subscriptions:
            if sub.sku != signature.sku:
                continue
            delay = self.base_delay
            if sub.subscriber not in self._contributors:
                delay += self.free_rider_delay

            def deliver(s: Subscription = sub) -> None:
                if signature.sig_id not in self._revoked:
                    s.callback(signature)

            self.sim.schedule(delay, deliver)

    # ------------------------------------------------------------------
    # Subscribe
    # ------------------------------------------------------------------
    def subscribe(self, subscriber: str, sku: str, callback: SignatureCallback) -> None:
        """Register for signatures of one SKU; existing accepted signatures
        are replayed immediately (with the same priority rules)."""
        sub = Subscription(subscriber=subscriber, sku=sku, callback=callback)
        self._subscriptions.append(sub)
        for sig_id in self._by_sku.get(sku, ()):
            if sig_id in self._revoked:
                continue
            signature = self.signatures[sig_id]
            if not self.reputation.accepted(sig_id, signature.reporter):
                continue
            delay = self.base_delay
            if subscriber not in self._contributors:
                delay += self.free_rider_delay
            self.sim.schedule(delay, callback, signature)

    # ------------------------------------------------------------------
    # Quality control
    # ------------------------------------------------------------------
    def vote(self, sig_id: int, voter: str, helpful: bool) -> None:
        """A subscriber's verdict; may revoke a now-distrusted signature."""
        signature = self.signatures.get(sig_id)
        if signature is None:
            return
        self.reputation.vote(sig_id, voter, helpful)
        self.reputation.feedback(signature.reporter, validated=helpful)
        if not self.reputation.accepted(sig_id, signature.reporter):
            self._revoked.add(sig_id)

    def is_revoked(self, sig_id: int) -> bool:
        return sig_id in self._revoked

    def reconsider(self, reporter: str) -> int:
        """Re-check acceptance of everything ``reporter`` published.

        Called when out-of-band evidence (e.g. quarantined telemetry --
        see :mod:`repro.learning.evidence`) degrades a contributor's
        reputation after their signatures were already accepted.  Returns
        how many live signatures were revoked.
        """
        revoked = 0
        for sig_id, signature in self.signatures.items():
            if sig_id in self._revoked or signature.reporter != reporter:
                continue
            if not self.reputation.accepted(sig_id, signature.reporter):
                self._revoked.add(sig_id)
                revoked += 1
        return revoked

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def signatures_for(self, sku: str, include_revoked: bool = False) -> list[AttackSignature]:
        return [
            self.signatures[sig_id]
            for sig_id in self._by_sku.get(sku, ())
            if include_revoked or sig_id not in self._revoked
        ]

    def covered_skus(self) -> set[str]:
        """SKUs with at least one live, accepted signature."""
        covered = set()
        for sku, ids in self._by_sku.items():
            for sig_id in ids:
                signature = self.signatures[sig_id]
                if sig_id not in self._revoked and self.reputation.accepted(
                    sig_id, signature.reporter
                ):
                    covered.add(sku)
                    break
        return covered

    def stats(self) -> dict[str, int]:
        return {
            "published": self.version,
            "duplicates": self.duplicates,
            "withheld": self.withheld,
            "revoked": len(self._revoked),
            "skus": len(self._by_sku),
            "subscriptions": len(self._subscriptions),
        }
