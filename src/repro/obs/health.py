"""Per-subsystem health rollups on top of the SLO monitor.

Each subsystem (pipeline, control channel, streams, µmbox fleet, HA,
overload queue) owns a tiny state machine ``ok → degraded → critical``
whose state is the *worst* of:

* the severities of currently-breached SLOs scoped to the subsystem, and
* direct **probes** — cheap closures that report an immediate condition
  (e.g. "a fail-open µmbox is down right now") without waiting for a
  burn window to accumulate.

State transitions are journaled (kind ``health``) and the deployment
rollup — the worst state across subsystems — is journaled under the
pseudo-subsystem ``deployment``.  Gauges ``health_state{subsystem=...}``
and ``health_rollup`` export the numeric level (0/1/2) to Prometheus.

:func:`attach_health_plane` builds the standard security-SLO catalog for
a :class:`~repro.core.deployment.SecuredDeployment`, registering each
SLO only when the backing component exists (no HA SLOs without a
checkpointer, no stream SLOs without durable telemetry).  With
``observe=False`` the plane is inert: nothing is registered or
scheduled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.obs.slo import (
    DEFAULT_PERIOD,
    SEVERITY_CRITICAL,
    SEVERITY_DEGRADED,
    SLO,
    SloMonitor,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deployment import SecuredDeployment
    from repro.netsim.simulator import Simulator

__all__ = [
    "HEALTH_OK",
    "HEALTH_DEGRADED",
    "HEALTH_CRITICAL",
    "HealthMonitor",
    "HealthPlane",
    "attach_health_plane",
    "standard_slos",
]

HEALTH_OK = "ok"
HEALTH_DEGRADED = "degraded"
HEALTH_CRITICAL = "critical"

#: Numeric level per state, used for the exported gauges and for
#: worst-of comparisons.
LEVELS = {HEALTH_OK: 0, HEALTH_DEGRADED: 1, HEALTH_CRITICAL: 2}
_STATE_BY_LEVEL = (HEALTH_OK, HEALTH_DEGRADED, HEALTH_CRITICAL)

#: A probe returns ``None`` (healthy) or ``(state, reason)``.
Probe = Callable[[], "tuple[str, str] | None"]


class HealthMonitor:
    """Aggregates SLO breach state + probes into per-subsystem health."""

    def __init__(self, sim: Simulator, slos: SloMonitor) -> None:
        self.sim = sim
        self.slos = slos
        self.enabled = slos.enabled
        self._subsystems: list[str] = []
        self._probes: dict[str, list[Probe]] = {}
        #: Flattened (subsystem, probe) pairs -- the tick loop walks this
        #: once instead of a dict-of-lists per subsystem.
        self._probe_items: list[tuple[str, Probe]] = []
        self._last: dict[str, str] = {}
        self._last_rollup = HEALTH_OK
        #: True while any subsystem (or the rollup) is not ok; lets the
        #: tick return immediately in the all-healthy steady state.
        self._any_bad = False
        self.transitions = 0
        if self.enabled:
            slos.on_tick = self._on_tick
            sim.metrics.gauge("health_rollup", fn=lambda: LEVELS[self.rollup()])

    # ------------------------------------------------------------------
    def register(self, subsystem: str) -> None:
        """Declare a subsystem so it appears in rollups even when all-ok."""
        if not self.enabled or subsystem in self._subsystems:
            return
        self._subsystems.append(subsystem)
        self._last[subsystem] = HEALTH_OK
        self.sim.metrics.gauge(
            "health_state",
            fn=lambda s=subsystem: LEVELS[self.state_of(s)],
            subsystem=subsystem,
        )

    def probe(self, subsystem: str, fn: Probe) -> None:
        if not self.enabled:
            return
        self.register(subsystem)
        self._probes.setdefault(subsystem, []).append(fn)
        self._probe_items.append((subsystem, fn))

    # ------------------------------------------------------------------
    def _findings(self, subsystem: str) -> list[tuple[str, str]]:
        """All (state, reason) contributions for a subsystem right now."""
        findings: list[tuple[str, str]] = []
        for tracker in self.slos.trackers:
            if tracker.slo.subsystem == subsystem and tracker.state == "breach":
                findings.append((tracker.slo.severity, f"slo:{tracker.slo.name}"))
        for fn in self._probes.get(subsystem, ()):
            result = fn()
            if result is not None:
                findings.append(result)
        return findings

    def state_of(self, subsystem: str) -> str:
        level = 0
        for state, _reason in self._findings(subsystem):
            level = max(level, LEVELS.get(state, 0))
            if level == 2:
                break
        return _STATE_BY_LEVEL[level]

    def reasons_of(self, subsystem: str) -> list[str]:
        return [reason for _state, reason in self._findings(subsystem)]

    def rollup(self) -> str:
        level = 0
        for subsystem in self._subsystems:
            level = max(level, LEVELS[self.state_of(subsystem)])
            if level == 2:
                break
        return _STATE_BY_LEVEL[level]

    # ------------------------------------------------------------------
    def _on_tick(self, now: float) -> None:
        """One flat pass over breach states and probes per tick.

        This runs once per SLO evaluation tick for the whole deployment;
        in the all-healthy steady state (no breached tracker, no probe
        finding, everything already ok) it returns after one cheap scan,
        so the health rollup adds near-zero cost on top of the SLO
        plane's own sampling.
        """
        levels: dict[str, int] | None = None
        for tracker in self.slos.trackers:
            if tracker.state != "ok":
                slo = tracker.slo
                level = LEVELS.get(slo.severity, 1)
                if levels is None:
                    levels = {slo.subsystem: level}
                elif level > levels.get(slo.subsystem, 0):
                    levels[slo.subsystem] = level
        for subsystem, fn in self._probe_items:
            result = fn()
            if result is not None:
                level = LEVELS.get(result[0], 0)
                if levels is None:
                    levels = {subsystem: level}
                elif level > levels.get(subsystem, 0):
                    levels[subsystem] = level
        if levels is None and not self._any_bad:
            return

        found = levels or {}
        worst = 0
        any_bad = False
        for subsystem in self._subsystems:
            level = found.get(subsystem, 0)
            if level:
                any_bad = True
                if level > worst:
                    worst = level
            state = _STATE_BY_LEVEL[level]
            prev = self._last[subsystem]
            if state != prev:
                self._last[subsystem] = state
                self.transitions += 1
                self.sim.journal.record(
                    "health",
                    subsystem=subsystem,
                    from_state=prev,
                    to_state=state,
                    reasons=self.reasons_of(subsystem),
                )
        rollup = _STATE_BY_LEVEL[worst]
        if rollup != self._last_rollup:
            prev, self._last_rollup = self._last_rollup, rollup
            self.transitions += 1
            self.sim.journal.record(
                "health", subsystem="deployment", from_state=prev, to_state=rollup
            )
        self._any_bad = any_bad

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        if not self.enabled:
            return {"enabled": False}
        subsystems = {
            name: {"state": self.state_of(name), "reasons": self.reasons_of(name)}
            for name in self._subsystems
        }
        return {
            "enabled": True,
            "rollup": self.rollup(),
            "transitions": self.transitions,
            "subsystems": subsystems,
        }


class HealthPlane:
    """SLO monitor + health monitor bound to one deployment."""

    def __init__(self, sim: Simulator, period: float = DEFAULT_PERIOD) -> None:
        self.sim = sim
        self.slos = SloMonitor(sim, period=period)
        self.health = HealthMonitor(sim, self.slos)
        self.enabled = self.slos.enabled

    def start(self) -> None:
        self.slos.start()

    def stop(self) -> None:
        self.slos.stop()

    def snapshot(self) -> dict[str, Any]:
        if not self.enabled:
            return {"enabled": False}
        health = self.health.snapshot()
        slos = self.slos.snapshot()
        return {
            "enabled": True,
            "at": self.sim.now,
            "rollup": health["rollup"],
            "subsystems": health["subsystems"],
            "transitions": health["transitions"],
            "slo_breaches": slos["breaches"],
            "slo_recoveries": slos["recoveries"],
            "slos": slos["slos"],
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
# Standard catalog for a SecuredDeployment
# ----------------------------------------------------------------------


def _reaction_signal(dep: SecuredDeployment, budget_s: float) -> Callable[[], tuple[int, int]]:
    """Cumulative (on-time, late) enforcement reactions.

    Keeps an incremental cursor into ``controller.reactions``; a list
    that *shrank* means a controller rebind (failover/restart), so the
    cursor resets and the fresh controller's reactions count as new.
    """
    state = {"seen": 0, "good": 0, "bad": 0}

    def signal() -> tuple[int, int]:
        ctrl = dep.controller
        if ctrl is None:
            return state["good"], state["bad"]
        records = ctrl.reactions
        if len(records) < state["seen"]:
            state["seen"] = 0
        for record in records[state["seen"] :]:
            if record.applied_at - record.trigger_at <= budget_s:
                state["good"] += 1
            else:
                state["bad"] += 1
        state["seen"] = len(records)
        return state["good"], state["bad"]

    return signal


def _ingest_signal(dep: SecuredDeployment) -> Callable[[], tuple[int, int]]:
    """Cumulative (processed, dropped) ENFORCING-class ingest alerts."""
    state = {"good": 0, "bad": 0}

    def signal() -> tuple[int, int]:
        ctrl = dep.controller
        queue = getattr(ctrl, "ingest", None) if ctrl is not None else None
        if queue is not None:
            state["good"], state["bad"] = queue.processed[0], queue.dropped[0]
        return state["good"], state["bad"]

    return signal


def _oldest_unacked_age(dep: SecuredDeployment) -> float:
    stream = dep.host_stream
    if stream is None:
        return 0.0
    oldest: float | None = None
    for lane in stream.lanes.values():
        record = lane.oldest_unacked()
        if record is not None and (oldest is None or record.at < oldest):
            oldest = record.at
    if oldest is None:
        return 0.0
    return dep.sim.now - oldest


def _max_lane_fill(dep: SecuredDeployment) -> float:
    stream = dep.host_stream
    if stream is None:
        return 0.0
    fill = 0.0
    for lane in stream.lanes.values():
        if lane.capacity:
            fill = max(fill, lane.depth() / lane.capacity)
    return fill


def standard_slos(dep: SecuredDeployment, plane: HealthPlane) -> None:
    """Register the standard security-SLO catalog + probes for ``dep``.

    Each entry is added only when its backing component exists; the full
    table (objective, windows, burn thresholds, signal source) is
    documented in docs/architecture.md § "Health & SLOs".
    """
    slos, health = plane.slos, plane.health
    sim = dep.sim

    # --- pipeline: time-to-enforcement --------------------------------
    health.register("pipeline")
    slos.add(
        SLO(
            name="time-to-enforcement",
            subsystem="pipeline",
            objective="95% of enforcement reactions apply within 2s of the trigger",
            target=0.95,
            fast_window=10.0,
            slow_window=60.0,
            fast_burn=4.0,
            slow_burn=1.0,
            severity=SEVERITY_DEGRADED,
            signal=_reaction_signal(dep, budget_s=2.0),
        )
    )

    # --- µmbox fleet: exposure window ---------------------------------
    if dep.manager is not None:
        health.register("mbox-fleet")
        cluster = dep.cluster
        slos.add(
            SLO(
                name="exposure-window",
                subsystem="mbox-fleet",
                objective="99% of tunnelled traffic traverses a live µmbox (no fail-open passes)",
                target=0.99,
                fast_window=10.0,
                slow_window=60.0,
                fast_burn=2.0,
                slow_burn=1.0,
                severity=SEVERITY_CRITICAL,
                signal=lambda: (cluster.tunnelled_in, cluster.fail_open_passes),
            )
        )

        def fleet_probe() -> tuple[str, str] | None:
            open_outages = dep.manager.open_outages()
            if not open_outages:
                return None
            if any(o.fail_mode == "open" for o in open_outages):
                return (HEALTH_CRITICAL, f"{len(open_outages)} umbox(es) down fail-open")
            return (HEALTH_DEGRADED, f"{len(open_outages)} umbox(es) down fail-closed")

        health.probe("mbox-fleet", fleet_probe)

    # --- control channel ----------------------------------------------
    health.register("control-channel")
    channel = dep.channel
    controller_ep = dep.CONTROLLER
    reach_tracker = slos.add(
        SLO(
            name="control-reachability",
            subsystem="control-channel",
            objective="controller endpoint reachable 99% of the time",
            target=0.99,
            fast_window=5.0,
            slow_window=30.0,
            fast_burn=10.0,
            slow_burn=2.0,
            severity=SEVERITY_DEGRADED,
            check=lambda: channel.reachable(controller_ep),
        )
    )
    # The reachability tracker already sampled the predicate this tick;
    # the probe reads its outcome instead of re-running the check.
    health.probe(
        "control-channel",
        lambda: None
        if reach_tracker.last_ok
        else (HEALTH_DEGRADED, "controller unreachable (partition)"),
    )

    # --- streams (durable telemetry) ----------------------------------
    if dep.host_stream is not None:
        health.register("streams")
        slos.add(
            SLO(
                name="telemetry-freshness",
                subsystem="streams",
                objective="oldest unacked stream record is younger than 15s, 95% of the time",
                target=0.95,
                fast_window=10.0,
                slow_window=60.0,
                fast_burn=4.0,
                slow_burn=1.0,
                severity=SEVERITY_DEGRADED,
                check=lambda: _oldest_unacked_age(dep) <= 15.0,
                value=lambda: _oldest_unacked_age(dep),
                unit="s",
            )
        )
        slos.add(
            SLO(
                name="stream-headroom",
                subsystem="streams",
                objective="every stream lane stays under 80% of ring capacity, 95% of the time",
                target=0.95,
                fast_window=10.0,
                slow_window=60.0,
                fast_burn=4.0,
                slow_burn=1.0,
                severity=SEVERITY_DEGRADED,
                check=lambda: _max_lane_fill(dep) <= 0.8,
                value=lambda: _max_lane_fill(dep),
            )
        )

    # --- HA: failover blind window + checkpoint staleness -------------
    health.register("ha")
    blind_tracker = slos.add(
        SLO(
            name="failover-blind-window",
            subsystem="ha",
            objective="an active (non-crashed) controller exists 99% of the time",
            target=0.99,
            fast_window=5.0,
            slow_window=30.0,
            fast_burn=10.0,
            slow_burn=2.0,
            severity=SEVERITY_CRITICAL,
            check=lambda: dep.controller is not None and not dep.controller.crashed,
        )
    )
    health.probe(
        "ha",
        lambda: None
        if blind_tracker.last_ok
        else (HEALTH_CRITICAL, "no active controller"),
    )
    if dep.checkpointer is not None:
        store = dep.checkpointer.store
        period = dep.checkpoint_period
        attached_at = sim.now

        def checkpoint_age() -> float:
            latest = store.latest_at()
            ref = latest if latest is not None else attached_at
            return sim.now - ref

        slos.add(
            SLO(
                name="checkpoint-staleness",
                subsystem="ha",
                objective=f"latest checkpoint younger than {3 * period:.0f}s, 95% of the time",
                target=0.95,
                fast_window=max(10.0, 2 * period),
                slow_window=max(60.0, 12 * period),
                fast_burn=4.0,
                slow_burn=1.0,
                severity=SEVERITY_DEGRADED,
                check=lambda: checkpoint_age() <= 3 * period,
                value=checkpoint_age,
                unit="s",
            )
        )

    # --- overload: enforcing-alert delivery under shedding ------------
    if getattr(dep.controller, "ingest", None) is not None:
        health.register("overload")
        slos.add(
            SLO(
                name="enforcing-delivery",
                subsystem="overload",
                objective="99% of ENFORCING-class alerts processed (not shed)",
                target=0.99,
                fast_window=10.0,
                slow_window=60.0,
                fast_burn=2.0,
                slow_burn=1.0,
                severity=SEVERITY_CRITICAL,
                signal=_ingest_signal(dep),
            )
        )

        def shed_probe() -> tuple[str, str] | None:
            ctrl = dep.controller
            queue = getattr(ctrl, "ingest", None) if ctrl is not None else None
            if queue is not None and queue.shedding:
                return (HEALTH_DEGRADED, "ingest queue in shed mode")
            return None

        health.probe("overload", shed_probe)


def attach_health_plane(dep: SecuredDeployment, period: float = DEFAULT_PERIOD) -> HealthPlane:
    """Build, populate and start the health plane for a deployment.

    Inert (no gauges, no timers, no journal writes) when the simulator
    runs with ``observe=False``.
    """
    plane = HealthPlane(dep.sim, period=period)
    if plane.enabled:
        standard_slos(dep, plane)
        plane.start()
    return plane
