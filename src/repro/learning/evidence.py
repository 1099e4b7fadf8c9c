"""Quarantined telemetry as poisoning evidence (ROADMAP open item 3).

Each ingress boundary owns a :class:`~repro.obs.stream.DeadLetterQueue`:
the telemetry stream quarantines malformed or reputation-flagged alert
records, and the federation coordinator quarantines invalid signature
reports.  A quarantine alone leaves the shipper's crowdsourcing
reputation intact, so a host spamming its controller with poisonous
telemetry could keep publishing.  This module closes the loop for E3:
every quarantined record becomes beta-reputation evidence against the
host that shipped it, so a poisoning host's *published signatures* sink
below the accept threshold and its already-distributed ones are revoked.

The bridge polls rather than hooks: the DLQ stays a passive quarantine
(its consumers should not be able to crash the stream path), and the
sweep cadence bounds how stale the evidence can be.  Attribution is by
the quarantine's ``host`` field -- the mbox host that shipped the refused
record -- mapped to the repository's contributor identity.  Reputation is
keyed on *pseudonyms* (the publish path scrubs raw identities), so the
default mapping applies the repository's own salted pseudonym to the host
name; pass ``reporter_of`` when hosts publish under a site identity
instead of a per-host one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.learning.anonymize import pseudonym

if TYPE_CHECKING:  # pragma: no cover
    from repro.learning.repository import CrowdRepository
    from repro.obs.stream import DeadLetterQueue

__all__ = ["DlqEvidenceBridge", "attach_dlq_evidence"]


class DlqEvidenceBridge:
    """Sweep a dead-letter queue into repository reputation evidence."""

    def __init__(
        self,
        dlq: "DeadLetterQueue",
        repository: "CrowdRepository",
        period: float = 5.0,
        reporter_of: Callable[[str], str] | None = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive (got {period})")
        self.dlq = dlq
        self.repository = repository
        self.sim = dlq.sim
        self.period = period
        salt = repository.anonymizer.salt
        self.reporter_of = reporter_of or (lambda host: pseudonym(host, salt))
        #: Quarantines already converted to evidence (cursor into the
        #: DLQ's monotonic ``quarantined`` counter).
        self.swept = 0
        self.evidence_by_reporter: dict[str, int] = {}
        self.revoked_total = 0
        metrics = self.sim.metrics
        labels = dlq.metric_labels
        self._c_evidence = metrics.counter("dlq_poison_evidence", **labels)
        metrics.gauge(
            "dlq_evidence_reporters",
            fn=lambda: len(self.evidence_by_reporter),
            **labels,
        )

    def start(self) -> "DlqEvidenceBridge":
        self.sim.every(self.period, self.sweep)
        return self

    def sweep(self) -> int:
        """Convert quarantines since the last sweep into evidence.

        Returns how many were processed.  The DLQ's bounded ring may have
        rotated past some of them; those are still *counted* against the
        ring's most recent shipper mix by processing whatever is retained
        (rotation beyond a sweep period means the host was flooding --
        exactly the behavior the evidence should punish).
        """
        new = self.dlq.quarantined - self.swept
        if new <= 0:
            return 0
        recent = self.dlq.entries()[-new:] if new <= len(self.dlq) else self.dlq.entries()
        self.swept = self.dlq.quarantined
        reputation = self.repository.reputation
        touched: set[str] = set()
        for entry in recent:
            reporter = self.reporter_of(entry["host"])
            reputation.feedback(reporter, validated=False)
            self.evidence_by_reporter[reporter] = (
                self.evidence_by_reporter.get(reporter, 0) + 1
            )
            self._c_evidence.inc()
            touched.add(reporter)
            self.sim.journal.record(
                "poison-evidence",
                device=entry["device"],
                host=entry["host"],
                reporter=reporter,
                reason=entry["reason"],
                score=round(reputation.score_of(reporter), 4),
            )
        for reporter in touched:
            self.revoked_total += self.repository.reconsider(reporter)
        return len(recent)

    def stats(self) -> dict[str, object]:
        return {
            "swept": self.swept,
            "reporters": dict(self.evidence_by_reporter),
            "revoked_total": self.revoked_total,
        }


def attach_dlq_evidence(
    dlq: "DeadLetterQueue",
    repository: "CrowdRepository",
    period: float = 5.0,
    reporter_of: Callable[[str], str] | None = None,
) -> DlqEvidenceBridge:
    """Wire a DLQ into a repository's reputation loop and start sweeping."""
    return DlqEvidenceBridge(
        dlq, repository, period=period, reporter_of=reporter_of
    ).start()
