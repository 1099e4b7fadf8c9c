"""Incident reconstruction: one device's forensic timeline.

Builds a single per-device narrative from two sources:

- **journal** entries (:mod:`repro.obs.journal`) supply the durable facts:
  attack steps, verdicts, alerts, escalations, context changes, posture
  transitions, flow pushes.  Read through :mod:`repro.obs.trace`, the
  entries that share a trace id are one detection chain with per-stage
  *simulated* latencies (detect -> ingest-alert -> escalate -> evaluate ->
  actuate -> flow-install / epoch-commit);
- **metrics** (:mod:`repro.obs.registry`) supply the aggregate context
  (how many alerts of each kind, how many applies for this device).

Journal entries without a trace id (attack steps, device state changes,
ground-truth compromises) still appear on the timeline, ordered by
simulated time with sequence numbers breaking ties.  Causality edges are
the consecutive stage pairs of each chain, in stage order -- the rendered
incident is exactly the paper's Figure 2 loop, replayed from evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

__all__ = ["Incident", "IncidentChain", "SITE_EVENT_KINDS", "reconstruct"]

#: Site-scoped journal kinds (recorded with ``device=""``) that a device
#: timeline can opt into via ``reconstruct(..., site_events=True)``:
#: SLO breaches, health transitions and stream replays are deployment
#: facts, but they frame what happened to every device in the window.
SITE_EVENT_KINDS = frozenset(
    {
        "slo-breach",
        "slo-recover",
        "health",
        "stream-replay",
        "failover",
        "failover-complete",
        "site-autonomy-enter",
        "site-autonomy-exit",
        "signature-sync",
    }
)


@dataclass
class IncidentChain:
    """One causal chain (one trace) with its joined journal evidence."""

    trace_id: int
    stages: list[dict[str, Any]] = field(default_factory=list)
    #: Journal entries carrying this chain's trace id.
    journal_seqs: list[int] = field(default_factory=list)
    #: The journal's ring evicted the records that opened this chain, so
    #: ``stages`` is only its tail.
    evicted: bool = False

    @property
    def stage_names(self) -> list[str]:
        return [s["stage"] for s in self.stages]

    @property
    def total_latency(self) -> float:
        if not self.stages:
            return 0.0
        return max(s["end"] for s in self.stages) - min(s["start"] for s in self.stages)

    def edges(self) -> list[tuple[str, str]]:
        """Causality edges: consecutive stages of this chain."""
        names = self.stage_names
        return list(zip(names, names[1:]))

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "stages": [dict(s) for s in self.stages],
            "edges": [list(edge) for edge in self.edges()],
            "journal_seqs": list(self.journal_seqs),
            "total_latency": self.total_latency,
            "evicted": self.evicted,
        }


@dataclass
class Incident:
    """A reconstructed per-device incident: timeline + chains + context."""

    device: str
    built_at: float
    timeline: list[dict[str, Any]] = field(default_factory=list)
    chains: list[IncidentChain] = field(default_factory=list)
    alerts_by_kind: dict[str, int] = field(default_factory=dict)
    applies: int = 0
    context: str = ""
    posture: str = ""
    #: Which policy rule currently wins for this device, when a policy was
    #: available to explain the decision (see :func:`reconstruct`).
    winning_rule: dict[str, Any] | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "device": self.device,
            "built_at": self.built_at,
            "timeline": [dict(e) for e in self.timeline],
            "chains": [c.as_dict() for c in self.chains],
            "alerts_by_kind": dict(self.alerts_by_kind),
            "applies": self.applies,
            "context": self.context,
            "posture": self.posture,
            "winning_rule": dict(self.winning_rule) if self.winning_rule else None,
        }

    def render(self) -> str:
        """Operator-facing plain-text reconstruction."""
        lines = [
            f"incident report: {self.device} @ t={self.built_at:.1f}s"
            + (f"  context={self.context}" if self.context else "")
            + (f"  posture={self.posture}" if self.posture else "")
        ]
        if self.alerts_by_kind:
            kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.alerts_by_kind.items()))
            lines.append(f"  alerts: {kinds}")
        if self.winning_rule is not None:
            lines.append(
                f"  policy: rule #{self.winning_rule['rule_id']}"
                f" [{self.winning_rule['predicate']}]"
                f" -> {self.winning_rule['posture']}"
            )
        lines.append(f"  timeline ({len(self.timeline)} events):")
        for event in self.timeline:
            trace = f" trace={event['trace_id']}" if event.get("trace_id") else ""
            detail = " ".join(
                f"{k}={v}" for k, v in event.get("detail", {}).items() if v not in ("", None)
            )
            lines.append(
                f"    t={event['at']:>9.4f}  {event['kind']:<18}{trace}  {detail}".rstrip()
            )
        for chain in self.chains:
            lines.append(
                f"  chain trace#{chain.trace_id}"
                f" ({len(chain.stages)} stages,"
                f" total {chain.total_latency * 1e3:.1f}ms"
                + (", opening records evicted" if chain.evicted else "")
                + "):"
            )
            for stage in chain.stages:
                lines.append(
                    f"    {stage['stage']:<14}"
                    f" t={stage['start']:>9.4f} -> {stage['end']:>9.4f}"
                    f"  (+{stage['latency'] * 1e3:7.2f}ms)"
                )
        return "\n".join(lines)


def reconstruct(
    sim: "Simulator",
    device: str,
    policy: Any = None,
    state: Any = None,
    dlq: Any = None,
    site_events: bool = False,
) -> Incident:
    """Rebuild the incident timeline for ``device`` from ``sim``'s evidence.

    ``policy`` (a :class:`~repro.policy.fsm.PolicyFSM`) together with
    ``state`` (the current :class:`~repro.policy.context.SystemState`) are
    optional explainers: when both are given the incident also reports
    which rule currently decides the device's posture
    (:meth:`PolicyFSM.rule_for`) -- the "why", next to the journal's
    "what" and its chains' "when".

    ``dlq`` (a :class:`~repro.obs.stream.DeadLetterQueue`) adds the
    quarantined evidence: records the stream consumer refused for this
    device appear on the timeline with ``source="dlq"`` and their full
    refusal detail.  (The refusal *event* is also journaled at quarantine
    time, so it survives DLQ rotation; the DLQ join contributes the
    record body that the bounded journal entry deliberately omits.)

    ``site_events`` folds site-scoped journal entries (SLO breaches and
    recoveries, health transitions, post-outage stream replays,
    failovers -- see :data:`SITE_EVENT_KINDS`) into the timeline with
    ``source="site"``: those records carry no device, yet they explain
    *why* this device's evidence arrived late or its enforcement
    stalled.  Off by default so a device timeline stays device-scoped.
    """
    incident = Incident(device=device, built_at=sim.now)

    # -- dead-letter plane: quarantined (refused) records ------------------
    if dlq is not None:
        for item in dlq.for_device(device):
            incident.timeline.append(
                {
                    "at": item["at"],
                    "seq": 0,  # quarantines carry no journal sequence
                    "source": "dlq",
                    "kind": "dlq-quarantine",
                    "trace_id": None,
                    "detail": {
                        "reason": item["reason"],
                        "host": item["host"],
                        "alert_kind": item["alert_kind"],
                        "offset": item["offset"],
                    },
                }
            )

    # -- journal plane: durable per-device facts --------------------------
    journal_entries = sim.journal.for_device(device)
    seqs_by_trace: dict[int, list[int]] = {}
    for entry in journal_entries:
        incident.timeline.append(
            {
                "at": entry.at,
                "seq": entry.seq,
                "source": "journal",
                "kind": entry.kind,
                "trace_id": entry.trace_id,
                "detail": dict(entry.fields),
            }
        )
        if entry.trace_id is not None:
            seqs_by_trace.setdefault(entry.trace_id, []).append(entry.seq)
        if entry.kind == "alert":
            kind = str(entry.fields.get("alert_kind", "?"))
            incident.alerts_by_kind[kind] = incident.alerts_by_kind.get(kind, 0) + 1
        elif entry.kind == "posture":
            incident.applies += 1
            incident.posture = str(entry.fields.get("posture", incident.posture))
        elif entry.kind == "context":
            incident.context = str(entry.fields.get("context", incident.context))

    # -- site plane (opt-in): deployment-scoped events framing the window --
    if site_events:
        seen = {e.seq for e in journal_entries}
        for entry in sim.journal:
            if entry.kind in SITE_EVENT_KINDS and entry.seq not in seen:
                incident.timeline.append(
                    {
                        "at": entry.at,
                        "seq": entry.seq,
                        "source": "site",
                        "kind": entry.kind,
                        "trace_id": entry.trace_id,
                        "detail": dict(entry.fields),
                    }
                )
                if entry.trace_id is not None:
                    seqs_by_trace.setdefault(entry.trace_id, []).append(entry.seq)

    # -- causal chains: the journal's traces, with per-stage latencies -----
    tracer = sim.tracer
    for trace_id in tracer.traces_for(device):
        spans = tracer.spans(trace_id)
        chain = IncidentChain(
            trace_id=trace_id,
            journal_seqs=seqs_by_trace.get(trace_id, []),
            evicted=tracer.evicted(trace_id),
        )
        for span in spans:
            chain.stages.append(
                {
                    "stage": span.stage,
                    "start": span.start,
                    "end": span.end,
                    "latency": span.latency,
                    "device": span.device,
                    "attrs": dict(span.attrs),
                }
            )
        incident.chains.append(chain)

    # -- metrics plane: aggregate context for this device -----------------
    registry = sim.metrics
    if registry.enabled:
        applies = 0.0
        for instrument in registry.series("pipeline_device_applies"):
            if instrument.labels.get("device") == device:
                applies += instrument.value
        if applies:
            incident.applies = max(incident.applies, int(applies))

    # -- policy plane: explain the current decision -----------------------
    if policy is not None and state is not None:
        rule = policy.rule_for(state, device)
        if rule is not None:
            incident.winning_rule = {
                "rule_id": rule.rule_id,
                "predicate": str(rule.predicate),
                "posture": rule.posture.name,
                "priority": rule.priority,
            }

    incident.timeline.sort(key=lambda e: (e["at"], e["seq"]))
    return incident
