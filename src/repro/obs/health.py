"""The health plane: SLOs and probes per subsystem, the standard catalog,
and the run invariants (:mod:`repro.obs.slo` has the checker forms).

A subsystem (pipeline, control channel, streams, µmbox fleet, HA, overload
queue) is ``ok``, ``degraded`` or ``critical``: the worst severity of its
breached SLOs and of its **probes**, checkers that report a condition now,
with no burn window.  Its reasons list the breached SLOs in tracker order,
then the probes' findings in registration order.  Each tick evaluates the
SLOs, then journals every transition (kind ``health``; the rollup, the
worst state, as subsystem ``deployment``).  Gauges ``health_state`` and
``health_rollup`` export the level (0/1/2).  With ``observe=False`` the
plane registers and schedules nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.slo import DEFAULT_PERIOD, SEVERITY_CRITICAL, SLO, Reading, Signal, SloTracker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deployment import SecuredDeployment, SiteSpec
    from repro.netsim.simulator import Simulator

__all__ = [
    "HEALTH_OK",
    "HEALTH_DEGRADED",
    "HEALTH_CRITICAL",
    "INVARIANTS",
    "HealthPlane",
    "Probe",
    "attach_health_plane",
    "catalog",
    "violations",
]

HEALTH_OK, HEALTH_DEGRADED, HEALTH_CRITICAL = _STATES = ("ok", "degraded", "critical")
#: Numeric level per state: the exported gauges and worst-of comparisons.
LEVELS = {state: level for level, state in enumerate(_STATES)}


@dataclass(frozen=True)
class Probe:
    """A checker with no window: the first tier whose gauge reading is not
    ok sets the subsystem's state.  A tier's reason is a ``str.format``
    template over the probe's gauge values by metric name, or a callable
    for text a number cannot carry."""

    subsystem: str
    tiers: tuple[tuple[str, Reading, str | Callable[[], str]], ...]


def _finding(tiers: list[tuple[int, Any, Any]]) -> tuple[int, str] | None:
    """A bound probe's ``(level, reason)``.  A tier's checker is a gauge
    :class:`Signal` or an SLO tracker (its latest sample)."""
    for level, check, reason in tiers:
        if not check.ok():
            if callable(reason):
                return level, reason()
            signals = [c for __, c, __ in tiers if isinstance(c, Signal)]
            return level, reason.format_map({c.reading.metric: c.read() for c in signals})
    return None


def _worst(found: dict[str, tuple[int, list[str]]]) -> int:
    return max((level for level, __ in found.values()), default=0)


class HealthPlane:
    """The SLOs and probes over one ``root`` (a site, a federation), whose
    components the rows' readings name, evaluated on one tick.

    ``slos`` and ``health`` are the plane itself: the views the ledger
    reads (``slos.trackers``, ``health.rollup()``).
    """

    def __init__(self, sim: Simulator, period: float = DEFAULT_PERIOD, root: Any = None) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive (got {period})")
        self.sim = sim
        self.period = period
        self.root = root
        self.enabled = bool(sim.metrics.enabled)
        self.slos = self.health = self
        self.trackers: list[SloTracker] = []
        #: ``(subsystem, tiers)`` per probe, in registration order.
        self.probes: list[tuple[str, list[tuple[int, Any, Any]]]] = []
        self._last: dict[str, str] = {}  # subsystem -> state, in registration order
        self._last_rollup = HEALTH_OK
        #: True while any subsystem is not ok.
        self._any_bad = False
        self.ticks = 0
        self.transitions = 0
        self._stop: Callable[[], None] | None = None
        # The first plane on a simulator keeps bare labels; a later one (a
        # second site's) adds ``plane="health#2"`` to every series it owns.
        name = sim.metrics.unique("health", namespace="plane")
        self.metric_labels = {} if name == "health" else {"plane": name}
        if self.enabled:
            sim.metrics.gauge(
                "health_rollup", fn=lambda: LEVELS[self.rollup()], **self.metric_labels
            )

    def register(self, subsystem: str) -> None:
        """Declare a subsystem so it appears in rollups even when all-ok."""
        if self.enabled and subsystem not in self._last:
            self._last[subsystem] = HEALTH_OK
            self.sim.metrics.gauge(
                "health_state",
                fn=lambda: LEVELS[self.state_of(subsystem)],
                subsystem=subsystem,
                **self.metric_labels,
            )

    def add(self, row: SLO | Probe) -> SloTracker | None:
        """Register a catalog row, binding its readings now.  Returns an
        SLO's tracker; None for a probe, when disabled, or when a reading's
        component is absent (the row is then left out)."""
        if not self.enabled:
            return None
        metrics = self.sim.metrics
        if isinstance(row, Probe):
            tiers = [(LEVELS[state], Signal(reading), reason) for state, reading, reason in row.tiers]
            if all(signal.attach(metrics, self.root) for __, signal, __ in tiers):
                self.register(row.subsystem)
                self.probes.append((row.subsystem, tiers))
            return None
        if any(t.slo.name == row.name for t in self.trackers):
            raise ValueError(f"duplicate SLO name {row.name!r}")
        signal = Signal(row.reading)
        if not signal.attach(metrics, self.root):
            return None
        tracker = SloTracker(row, self.sim, signal, {"slo": row.name, **self.metric_labels})
        self.trackers.append(tracker)
        self.register(row.subsystem)
        if row.probe is not None:
            self.probes.append((row.subsystem, [(LEVELS[row.probe[0]], tracker, row.probe[1])]))
        return tracker

    def rebind(self) -> None:
        """Bind every reading again: the root rebuilt a component (a new
        controller incarnation), whose series join the readings."""
        signals = [t.signal for t in self.trackers]
        signals += [c for __, tiers in self.probes for __, c, __ in tiers if isinstance(c, Signal)]
        for signal in signals:
            signal.attach(self.sim.metrics, self.root)

    def start(self) -> None:
        if self.enabled and self._stop is None:
            self._stop = self.sim.every(self.period, self._tick)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    # ------------------------------------------------------------------
    def evaluate(self) -> dict[str, tuple[int, list[str]]]:
        """Each subsystem's ``(level, reasons)`` now: the one evaluation
        behind the tick's transitions, the reads and the gauges."""
        found: dict[str, tuple[int, list[str]]] = {name: (0, []) for name in self._last}
        breached = [
            (t.slo.subsystem, LEVELS[t.slo.severity], f"slo:{t.slo.name}")
            for t in self.trackers
            if t.state != "ok"
        ]
        for subsystem, tiers in self.probes:
            finding = _finding(tiers)
            if finding is not None:
                breached.append((subsystem, *finding))
        for subsystem, level, reason in breached:
            if subsystem in found:
                worst, reasons = found[subsystem]
                found[subsystem] = (max(worst, level), [*reasons, reason])
        return found

    def state_of(self, subsystem: str) -> str:
        return _STATES[self.evaluate()[subsystem][0]]

    def reasons_of(self, subsystem: str) -> list[str]:
        return self.evaluate()[subsystem][1]

    def rollup(self) -> str:
        return _STATES[_worst(self.evaluate())]

    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        for tracker in self.trackers:
            tracker.evaluate(now)
        found = self.evaluate()
        worst = _worst(found)
        if not worst and not self._any_bad:
            return  # all ok, as last journaled
        for subsystem, (level, reasons) in found.items():
            state, prev = _STATES[level], self._last[subsystem]
            if state != prev:
                self._last[subsystem] = state
                self.transitions += 1
                self.sim.journal.record(
                    "health", subsystem=subsystem, from_state=prev, to_state=state, reasons=reasons
                )
        rollup = _STATES[worst]
        if rollup != self._last_rollup:
            prev, self._last_rollup = self._last_rollup, rollup
            self.transitions += 1
            self.sim.journal.record("health", subsystem="deployment", from_state=prev, to_state=rollup)
        self._any_bad = worst > 0

    # ------------------------------------------------------------------
    def breach_total(self) -> int:
        return sum(t.breaches for t in self.trackers)

    def snapshot(self) -> dict[str, Any]:
        if not self.enabled:
            return {"enabled": False}
        found = self.evaluate()
        return {
            "enabled": True,
            "at": self.sim.now,
            "rollup": _STATES[_worst(found)],
            "subsystems": {
                name: {"state": _STATES[level], "reasons": reasons}
                for name, (level, reasons) in found.items()
            },
            "transitions": self.transitions,
            "slo_breaches": self.breach_total(),
            "slo_recoveries": sum(t.recoveries for t in self.trackers),
            "slos": [t.status() for t in self.trackers],
        }

    def render(self) -> str:
        """Human-readable health report (the `repro health` body)."""
        if not self.enabled:
            return "health plane disabled (observe=False)"
        snap = self.snapshot()
        mark = {"ok": "+", "degraded": "~", "critical": "!"}
        lines = [f"deployment: {snap['rollup'].upper()}  (t={snap['at']:.1f}s)"]
        for name, info in snap["subsystems"].items():
            reason = f"  [{', '.join(info['reasons'])}]" if info["reasons"] else ""
            lines.append(f"  [{mark[info['state']]}] {name:<16} {info['state']}{reason}")
        lines.append(
            f"slos: {len(snap['slos'])} tracked, "
            f"{snap['slo_breaches']} breach(es), {snap['slo_recoveries']} recovery(ies)"
        )
        for slo in snap["slos"]:
            value = f"  value={slo['value']}{slo.get('unit', '')}" if "value" in slo else ""
            lines.append(
                f"  [{mark['ok'] if slo['state'] == 'ok' else mark[slo['severity']]}] "
                f"{slo['name']:<24} {slo['state']:<6} "
                f"burn fast={slo['burn_fast']:.2f}/{slo['fast_burn']:.0f} "
                f"slow={slo['burn_slow']:.2f}/{slo['slow_burn']:.0f}{value}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The standard catalog for a SecuredDeployment
# ----------------------------------------------------------------------
def catalog(spec: SiteSpec) -> tuple[SLO | Probe, ...]:
    """The standard rows for a site built from ``spec``, in registration
    order (docs/architecture.md § "Health & SLOs")."""
    period, ingest, critical = spec.checkpoint_period, spec.ingest, SEVERITY_CRITICAL
    return (
        SLO("time-to-enforcement", "pipeline",
            "95% of enforcement reactions apply within 2s of the trigger",
            Reading("pipeline_reaction_latency", split=2.0, of="controller.pipeline"),
            0.95, 10.0, 60.0, 4.0, 1.0),
        SLO("exposure-window", "mbox-fleet",
            "99% of tunnelled traffic traverses a live µmbox (no fail-open passes)",
            Reading("mbox_tunnelled_in", bad="mbox_fail_open_passes", of="manager"),
            0.99, 10.0, 60.0, 2.0, 1.0, critical),
        Probe("mbox-fleet", (
            (HEALTH_CRITICAL, Reading("mbox_fail_open_outages", limit=0, of="manager"),
             "{mbox_outages} umbox(es) down fail-open"),
            (HEALTH_DEGRADED, Reading("mbox_outages", limit=0, of="manager"),
             "{mbox_outages} umbox(es) down fail-closed"))),
        SLO("control-reachability", "control-channel",
            "controller endpoint reachable 99% of the time",
            Reading("controller_reachable", floor=1, of="controller"),
            0.99, 5.0, 30.0, 10.0, 2.0, probe=(HEALTH_DEGRADED, "controller unreachable (partition)")),
        SLO("telemetry-freshness", "streams",
            "oldest unacked stream record is younger than 15s, 95% of the time",
            Reading("stream_oldest_unacked_age", limit=15.0, of="host_stream"),
            0.95, 10.0, 60.0, 4.0, 1.0, unit="s"),
        SLO("stream-headroom", "streams",
            "every stream lane stays under 80% of ring capacity, 95% of the time",
            Reading("stream_max_fill", limit=0.8, of="host_stream"),
            0.95, 10.0, 60.0, 4.0, 1.0, unit=""),
        SLO("failover-blind-window", "ha",
            "an active (non-crashed) controller exists 99% of the time",
            Reading("controller_up", floor=1, of="controller"),
            0.99, 5.0, 30.0, 10.0, 2.0, critical, probe=(HEALTH_CRITICAL, "no active controller")),
        SLO("checkpoint-staleness", "ha",
            f"latest checkpoint younger than {3 * period:.0f}s, 95% of the time",
            Reading("checkpoint_age", limit=3 * period, of="checkpointer"),
            0.95, max(10.0, 2 * period), max(60.0, 12 * period), 4.0, 1.0, unit="s"),
        SLO("enforcing-delivery", "overload",
            "99% of ENFORCING-class alerts processed (not shed)",
            Reading("ingest_processed", bad="ingest_dropped", of="controller.ingest",
                    labels=(("cls", "enforcing"),)),
            0.99, 10.0, 60.0, 2.0, 1.0, critical),
        # A full queue evicts or drops what arrives next.
        Probe("overload", ((HEALTH_DEGRADED, Reading(
            "ingest_depth", limit=ingest.capacity - 1 if ingest else 0, of="controller.ingest"),
            "ingest queue full"),)),
    )  # fmt: skip


def attach_health_plane(dep: SecuredDeployment, period: float = DEFAULT_PERIOD) -> HealthPlane:
    """Build, populate and start the health plane for a deployment (inert
    when the simulator runs with ``observe=False``)."""
    plane = HealthPlane(dep.sim, period=period, root=dep)
    for row in catalog(dep.spec):
        plane.add(row)
    plane.start()
    return plane


# ----------------------------------------------------------------------
# Run invariants: checkers evaluated once, on a finished run.  They only
# read (no journal record, no trace id) and read the whole registry, so
# the simulator holds the one site.
# ----------------------------------------------------------------------
def _alerts_accounted(dep: SecuredDeployment) -> list[str]:
    """Every alert a controller took in was processed, shed and counted,
    or is still queued; where alerts ride a lane, every alert a µmbox
    emitted reached a controller, the DLQ or is still in a lane."""
    total = dep.sim.metrics.total
    arrived, out = total("controller_alerts"), []
    kept = total("ingest_processed") + total("ingest_dropped") + total("ingest_depth")
    if dep.spec.ingest is not None and arrived != kept:
        out.append(f"{arrived:.0f} alerts reached a controller, {kept:.0f} processed, shed or queued")
    if dep.cluster is not None and (dep.spec.reliable_control or dep.host_stream is not None):
        emitted = total("mbox_alerts", **dep.cluster.metric_labels)
        held = arrived + total("dlq_quarantined") + total("stream_buffer_depth")
        held += total("channel_unacked")
        if emitted > held:
            out.append(f"{emitted:.0f} alerts emitted, {held:.0f} reached a controller, DLQ or lane")
    return out


def _rank(summary: str) -> int:
    """A posture record's summary ranked: 0 allow, 1 monitoring only, 2 enforcing."""
    from repro.policy.posture import MONITOR_ONLY_KINDS

    kinds = summary.partition("(")[2][:-1]
    return 0 if kinds == "allow" else 1 if set(kinds.split("+")) <= MONITOR_ONLY_KINDS else 2


def _posture_never_lowered(dep: SecuredDeployment) -> list[str]:
    """No restart or takeover lowers a device's posture below its last one
    before the crash: the retained journal's ``posture`` records from
    ``controller-crash`` (or ``failover``) to ``controller-restart`` (or
    ``failover-complete``)."""
    last: dict[str, int] = {}
    before: dict[str, int] | None = None
    out = []
    for entry in dep.sim.journal.entries():
        if entry.kind in ("controller-crash", "failover") and before is None:
            before = dict(last)
        elif entry.kind in ("controller-restart", "failover-complete"):
            before = None
        elif entry.kind == "posture":
            rank = last[entry.device] = _rank(entry.fields["summary"])
            if before is not None and rank < before.get(entry.device, 0):
                out.append(f"{entry.device} lowered to {entry.fields['summary']} at t={entry.at}")
    return out


#: name -> checker of a finished run: its violations, none on a sound run.
INVARIANTS: dict[str, Callable[[SecuredDeployment], list[str]]] = {
    "offload": lambda dep: [str(v) for v in dep.orchestrator.offload_violations()],
    "alerts-accounted": _alerts_accounted,
    "posture-never-lowered": _posture_never_lowered,
}


def violations(dep: SecuredDeployment) -> list[str]:
    """Every invariant ``dep``'s finished run breaks, one line each."""
    return [f"{name}: {v}" for name, check in INVARIANTS.items() for v in check(dep)]
