"""Deployment metrics and reporting.

One call summarizes a (finished or running) deployment for operators and
experiments: per-device security state, alert volumes, enforcement
activity, traffic accounting, and controller reaction latencies.  The
benchmarks compute their own narrow metrics; this module is the operator-
facing "what is my home's security posture right now" view, and the CLI's
output backend.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment


def nearest_rank(sorted_samples: Sequence[float], p: float) -> float:
    """The nearest-rank ``p`` quantile of an ascending, non-empty sample.

    That is the smallest value with at least ``p*n`` observations at or
    below it: element ``ceil(p*n)`` (1-based).  ``sorted_samples[int(p*n)]``
    is one rank high -- p99 equals the max at n=100, and p50 takes the
    upper middle value on an even count.
    """
    n = len(sorted_samples)
    return sorted_samples[min(n - 1, max(0, math.ceil(p * n) - 1))]


@dataclass
class DeviceSummary:
    name: str
    kind: str
    sku: str
    state: str
    context: str
    posture: str
    flaws: tuple[str, ...]
    alerts: int
    compromised_ground_truth: bool


@dataclass
class DeploymentReport:
    """A point-in-time summary of one deployment."""

    at: float
    devices: list[DeviceSummary] = field(default_factory=list)
    alerts_by_kind: dict[str, int] = field(default_factory=dict)
    postures_applied: int = 0
    #: µmbox lifecycle counts: ``active``, ``boots`` and ``reconfigs``.
    mbox: dict[str, int] = field(
        default_factory=lambda: {"active": 0, "boots": 0, "reconfigs": 0}
    )
    packets_tunnelled: int = 0
    packets_dropped_unbound: int = 0
    reaction_p50_ms: float | None = None
    reaction_max_ms: float | None = None
    events_processed: int = 0
    #: Full metrics-registry snapshot ({} when observability is disabled).
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Flight-recorder summary: journal stats, retained-entry counts by
    #: kind, and the most recent entries ({} when observability is off).
    journal: dict[str, Any] = field(default_factory=dict)
    #: Per-flagged-device incident summaries (device -> compact incident
    #: digest): chains, stage coverage, alert mix.
    incidents: dict[str, Any] = field(default_factory=dict)
    #: SLO/health-plane verdict ({} when no plane is attached): rollup,
    #: per-subsystem states, and the tracked SLO statuses.
    health: dict[str, Any] = field(default_factory=dict)

    def compromised_devices(self) -> list[str]:
        return [d.name for d in self.devices if d.compromised_ground_truth]

    def devices_not_normal(self) -> list[str]:
        return [d.name for d in self.devices if d.context != "normal"]

    def as_dict(self) -> dict[str, Any]:
        """Plain-serializable form: every value survives ``json.dumps``."""
        data = asdict(self)
        for device in data["devices"]:
            device["flaws"] = list(device["flaws"])
        return data

    def render(self) -> str:
        """A human-readable multi-line summary."""
        lines = [f"Deployment report @ t={self.at:.1f}s"]
        lines.append(
            f"  devices: {len(self.devices)}"
            f" | flagged: {len(self.devices_not_normal())}"
            f" | actually compromised: {len(self.compromised_devices())}"
        )
        header = f"  {'device':<14} {'kind':<16} {'state':<10} {'context':<11} {'posture':<20} alerts"
        lines.append(header)
        for d in self.devices:
            lines.append(
                f"  {d.name:<14} {d.kind:<16} {d.state:<10} {d.context:<11} "
                f"{d.posture:<20} {d.alerts}"
            )
        if self.alerts_by_kind:
            kinds = ", ".join(
                f"{k}={v}" for k, v in sorted(self.alerts_by_kind.items())
            )
            lines.append(f"  alerts: {kinds}")
        lines.append(
            f"  µmboxes: {self.mbox['active']} active"
            f" ({self.mbox['boots']} boots, {self.mbox['reconfigs']} reconfigs)"
            f" | tunnelled pkts: {self.packets_tunnelled}"
        )
        if self.reaction_p50_ms is not None:
            lines.append(
                f"  controller reactions: p50={self.reaction_p50_ms:.1f}ms"
                f" max={self.reaction_max_ms:.1f}ms"
            )
        if self.health:
            states = " ".join(
                f"{name}={info['state']}"
                for name, info in self.health.get("subsystems", {}).items()
            )
            lines.append(
                f"  health: {str(self.health.get('rollup', '?')).upper()}"
                f" | {states}"
                f" | slo breaches: {self.health.get('slo_breaches', 0)}"
                f" (recovered: {self.health.get('slo_recoveries', 0)})"
            )
        return "\n".join(lines)


def summarize(dep: "SecuredDeployment") -> DeploymentReport:
    """Build a :class:`DeploymentReport` from a deployment's current state.

    Alert volumes, µmbox lifecycle counts and tunnel traffic are read from
    the components themselves -- the attributes the metrics registry's
    callback gauges sample (and the alert list whose appends the
    ``mbox_alerts`` counter shadows) -- so this report and ``repro
    metrics`` cannot drift apart, with observability on or off.
    """
    report = DeploymentReport(at=dep.sim.now, events_processed=dep.sim.events_processed)

    alerts = dep.alerts()
    for alert in alerts:
        report.alerts_by_kind[alert.kind] = (
            report.alerts_by_kind.get(alert.kind, 0) + 1
        )

    for name, device in sorted(dep.devices.items()):
        context = dep.controller.context_of(name) if dep.controller else "-"
        posture = "-"
        if dep.orchestrator is not None:
            current = dep.orchestrator.posture_of(name)
            posture = current.name if current is not None else "-"
        report.devices.append(
            DeviceSummary(
                name=name,
                kind=device.kind,
                sku=device.sku,
                state=device.state,
                context=context,
                posture=posture,
                flaws=tuple(sorted(device.firmware.flaw_classes())),
                alerts=sum(1 for a in alerts if a.device == name),
                compromised_ground_truth=device.is_compromised(),
            )
        )

    if dep.orchestrator is not None:
        report.postures_applied = dep.orchestrator.applies
    if dep.manager is not None:
        report.mbox = {
            "active": dep.manager.active_count(),
            "boots": dep.manager.boots,
            "reconfigs": dep.manager.reconfigs,
        }
    if dep.cluster is not None:
        report.packets_tunnelled = dep.cluster.tunnelled_in
        report.packets_dropped_unbound = dep.cluster.unbound_drops
    if dep.controller is not None and dep.controller.reactions:
        # Exact quantiles from the reaction list (the registry histogram
        # only has bucket resolution; benches rely on precise latencies).
        latencies = sorted(r.latency for r in dep.controller.reactions)
        report.reaction_p50_ms = nearest_rank(latencies, 0.5) * 1e3
        report.reaction_max_ms = latencies[-1] * 1e3
    if dep.sim.metrics.enabled:
        report.metrics = dep.sim.metrics.snapshot()
    journal = dep.sim.journal
    if journal.enabled:
        report.journal = {
            **journal.stats(),
            "kinds": journal.kinds(),
            "tail": [entry.as_dict() for entry in journal.tail(20)],
        }
        # Per-flagged-device incident digests: the forensic view embedded
        # right where operators already look.  Full reconstruction stays
        # behind ``repro incident <device>``.
        from repro.obs.incident import reconstruct

        for name in report.devices_not_normal():
            incident = reconstruct(dep.sim, name)
            report.incidents[name] = {
                "events": len(incident.timeline),
                "chains": len(incident.chains),
                "stages": sorted(
                    {s for c in incident.chains for s in c.stage_names}
                ),
                "alerts_by_kind": dict(incident.alerts_by_kind),
                "applies": incident.applies,
            }
    plane = dep.health_plane
    if plane is not None and plane.enabled:
        report.health = plane.snapshot()
    return report
