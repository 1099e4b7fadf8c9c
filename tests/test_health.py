"""Tests for the health plane (:mod:`repro.obs.health`).

Covers the per-subsystem state machine (SLO severities + probes,
worst-of rollup, journaled transitions), the standard catalog's
conditional registration on a deployment, the named chaos scenarios'
deterministic breach->recover chains, and the incident-reconstruction
interleaving of SLO breaches, DLQ quarantines and stream replays on one
device timeline.
"""

from dataclasses import replace

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.metrics import summarize
from repro.core.overload import IngestConfig
from repro.policy.context import SUSPICIOUS
from repro.faults.scenario import (
    arm_health,
    e9_spec,
    launch_e9_attacks,
    measure_health,
    run_health_scenario,
)
from repro.netsim.simulator import Simulator
from repro.obs.health import (
    HEALTH_CRITICAL,
    HEALTH_DEGRADED,
    HEALTH_OK,
    INVARIANTS,
    HealthPlane,
    Probe,
    violations,
)
from repro.obs.incident import reconstruct
from repro.obs.slo import SLO, Reading


def check_slo(name="probe-me", subsystem="pipeline", gauge="ok", **over):
    base = dict(
        name=name,
        subsystem=subsystem,
        objective="stay ok",
        reading=Reading(gauge, floor=1),
        target=0.5,
        fast_window=2.0,
        slow_window=4.0,
        fast_burn=1.0,
        slow_burn=1.0,
    )
    base.update(over)
    return SLO(**base)


def probe(subsystem, state, gauge, reason):
    """A one-tier probe: ``state`` while the gauge reads above 0."""
    return Probe(subsystem, ((state, Reading(gauge, limit=0), reason),))


class TestHealthMonitor:
    def test_probe_drives_state_and_journals_transitions(self):
        sim = Simulator()
        mood = {"bad": False}
        sim.metrics.gauge("stream_lag", fn=lambda: 1 if mood["bad"] else 0)
        plane = HealthPlane(sim, period=1.0)
        health = plane.health
        health.register("pipeline")
        plane.add(probe("streams", HEALTH_DEGRADED, "stream_lag", "lagging"))
        plane.start()
        sim.schedule_at(3.0, lambda: mood.update(bad=True))
        sim.schedule_at(6.0, lambda: mood.update(bad=False))
        sim.run(until=10.0)

        assert health.state_of("streams") == HEALTH_OK
        assert health.rollup() == HEALTH_OK
        transitions = [
            (e.fields["subsystem"], e.fields["from_state"], e.fields["to_state"])
            for e in sim.journal.entries(kind="health")
        ]
        assert ("streams", "ok", "degraded") in transitions
        assert ("streams", "degraded", "ok") in transitions
        assert ("deployment", "ok", "degraded") in transitions
        assert ("deployment", "degraded", "ok") in transitions
        assert health.transitions == 4
        degraded = [
            e
            for e in sim.journal.entries(kind="health")
            if e.fields["to_state"] == "degraded"
            and e.fields["subsystem"] == "streams"
        ]
        assert degraded[0].fields["reasons"] == ["lagging"]

    def test_rollup_is_worst_of_subsystems(self):
        sim = Simulator()
        sim.metrics.gauge("lag", fn=lambda: 1)
        sim.metrics.gauge("controllers_down", fn=lambda: 1)
        plane = HealthPlane(sim, period=1.0)
        health = plane.health
        plane.add(probe("streams", HEALTH_DEGRADED, "lag", "lagging"))
        plane.add(probe("ha", HEALTH_CRITICAL, "controllers_down", "{controllers_down} controller(s) down"))
        health.register("pipeline")
        assert health.state_of("streams") == HEALTH_DEGRADED
        assert health.state_of("ha") == HEALTH_CRITICAL
        assert health.state_of("pipeline") == HEALTH_OK
        assert health.rollup() == HEALTH_CRITICAL
        snap = plane.snapshot()
        assert snap["rollup"] == "critical"
        assert snap["subsystems"]["ha"]["reasons"] == ["1 controller(s) down"]

    def test_breached_slo_severity_feeds_subsystem_state(self):
        sim = Simulator()
        sim.metrics.gauge("ok", fn=lambda: 0)
        plane = HealthPlane(sim, period=1.0)
        tracker = plane.slos.add(check_slo(subsystem="overload", severity="critical"))
        plane.health.register("overload")
        plane.start()
        sim.run(until=6.0)
        assert tracker.state == "breach"
        assert plane.health.state_of("overload") == HEALTH_CRITICAL
        assert plane.health.reasons_of("overload") == ["slo:probe-me"]
        assert sim.metrics.value("health_state", subsystem="overload") == 2
        assert sim.metrics.value("health_rollup") == 2

    def test_disabled_monitor_registers_and_schedules_nothing(self):
        sim = Simulator(observe=False)
        plane = HealthPlane(sim)
        plane.health.register("pipeline")
        plane.add(probe("pipeline", HEALTH_CRITICAL, "boom", "boom"))
        plane.add(check_slo())
        plane.start()
        sim.run(until=60.0)
        assert plane.enabled is False
        assert sim.events_processed == 0
        assert plane.snapshot() == {"enabled": False}
        assert plane.render() == "health plane disabled (observe=False)"

    def test_planes_sharing_a_simulator_read_their_own_series(self):
        """Two planes with the same SLO and subsystem names on one simulator
        (two sites): the first keeps the bare labels, the second its own
        series, so a breach on one never shows on the other's gauges."""
        sim = Simulator()
        sim.metrics.gauge("ok_a", fn=lambda: 1)
        sim.metrics.gauge("ok_b", fn=lambda: 0)
        planes = [HealthPlane(sim, period=1.0), HealthPlane(sim, period=1.0)]
        for plane, gauge in zip(planes, ("ok_a", "ok_b")):
            plane.add(check_slo(subsystem="overload", severity="critical", gauge=gauge))
            plane.start()
        sim.run(until=6.0)
        first, second = planes
        assert first.metric_labels == {} and second.metric_labels
        assert sim.metrics.value("slo_breached", slo="probe-me") == 0
        assert sim.metrics.value("health_state", subsystem="overload") == 0
        assert sim.metrics.value("health_rollup") == 0
        labels = second.metric_labels
        assert sim.metrics.value("slo_breached", slo="probe-me", **labels) == 1
        assert sim.metrics.value("slo_breaches", slo="probe-me", **labels) == 1
        assert sim.metrics.value("health_state", subsystem="overload", **labels) == 2
        assert sim.metrics.value("health_rollup", **labels) == 2

    def test_plane_labels_leave_component_names_alone(self):
        """A subsystem or SLO named like a component does not take that
        component's clean label value."""
        sim = Simulator()
        for __ in range(2):
            HealthPlane(sim).register("controller")
        assert sim.metrics.unique("controller") == "controller"


def build_home(sim=None, **over):
    dep = SecuredDeployment.build(sim=sim or Simulator(), health=True, **over)
    from repro.devices.library import smart_camera

    dep.add_device(smart_camera, "cam")
    dep.finalize()
    return dep


class TestDeploymentPlane:
    def test_catalog_registers_only_backed_slos(self):
        dep = build_home()
        names = {t.slo.name for t in dep.health_plane.slos.trackers}
        assert {
            "time-to-enforcement",
            "control-reachability",
            "failover-blind-window",
        } <= names
        assert "telemetry-freshness" not in names  # no durable stream
        assert "checkpoint-staleness" not in names  # no checkpointer

        rich = build_home(durable_telemetry=True, checkpointing=True)
        rich_names = {t.slo.name for t in rich.health_plane.slos.trackers}
        assert {
            "telemetry-freshness",
            "stream-headroom",
            "checkpoint-staleness",
        } <= rich_names

    def test_two_sites_on_one_simulator_get_a_series_per_row(self):
        sim = Simulator()
        planes = [build_home(sim).health_plane for __ in range(2)]
        metrics = sim.metrics
        trackers = sum(len(plane.trackers) for plane in planes)
        subsystems = sum(len(plane.evaluate()) for plane in planes)
        assert len(metrics.series("slo_breaches")) == trackers
        assert len(metrics.series("slo_burn_rate")) == 2 * trackers
        assert len(metrics.series("health_state")) == subsystems
        assert len(metrics.series("health_rollup")) == 2

    def test_on_time_count_includes_every_reaction_after_a_rebind(self):
        """Incarnation A applies N reactions and the plane ticks; after a
        restart, incarnation B applies at least N before the next tick.
        The time-to-enforcement SLO counts every one of them."""
        dep = build_home(checkpointing=True)
        (tracker,) = [
            t for t in dep.health_plane.slos.trackers if t.slo.name == "time-to-enforcement"
        ]

        def react(n):
            for __ in range(n):
                dep.controller.set_context("cam", SUSPICIOUS)
                dep.controller.clear_context("cam")

        first = dep.controller
        react(3)
        dep.run(until=6.0)  # one plane tick and one checkpoint
        dep.crash_controller()
        dep.restart_controller()
        react(4)
        tracker.evaluate(dep.sim.now)
        before, after = len(first.reactions), len(dep.controller.reactions)
        assert after >= before >= 6
        __, good, bad = tracker._slow_samples[-1]
        assert (good, bad) == (before + after, 0)

    def test_full_ingest_queue_degrades_overload(self):
        """The overload probe reads degraded exactly while the ingest
        queue is full, when the next arrival is evicted or dropped."""
        dep = build_home(ingest=IngestConfig(capacity=2, service_time=1.0))
        health = dep.health_plane.health
        alert = {"device": "cam", "kind": "port-scan", "detail": {}}
        dep.controller._on_alert(alert, 0.0)
        assert health.state_of("overload") == HEALTH_OK
        dep.controller._on_alert(alert, 0.0)
        assert dep.controller.ingest.depth() == 2
        assert health.state_of("overload") == HEALTH_DEGRADED
        assert health.reasons_of("overload") == ["ingest queue full"]
        dep.run(until=1.0)  # one serviced: room again
        assert health.state_of("overload") == HEALTH_OK

    def test_fresh_deployment_rolls_up_ok(self):
        dep = build_home()
        dep.run(until=30.0)
        plane = dep.health_plane
        assert plane.enabled
        snap = plane.snapshot()
        assert snap["rollup"] == "ok"
        assert snap["slo_breaches"] == 0
        assert plane.slos.ticks > 0
        rendered = plane.render()
        assert "deployment: OK" in rendered
        assert "control-reachability" in rendered

    def test_report_embeds_health_verdict(self):
        dep = build_home()
        dep.run(until=10.0)
        report = summarize(dep)
        assert report.health["rollup"] == "ok"
        assert "health: OK" in report.render()
        assert report.as_dict()["health"]["slo_breaches"] == 0

    def test_observe_false_plane_is_inert(self):
        sim = Simulator(observe=False)
        dep = build_home(sim=sim)
        events_before = sim.events_processed
        dep.run(until=60.0)
        plane = dep.health_plane
        assert plane is not None and plane.enabled is False
        assert plane.slos.trackers == []
        assert plane.snapshot() == {"enabled": False}
        # No health timer: the only events are the deployment's own.
        assert dep.sim.journal.recorded == 0
        assert summarize(dep).health == {}

    def test_plane_costs_its_ticks_and_observe_false_is_a_null_instrument(self):
        """The E9 home under attack, observed and not: the same simulated
        work plus one event per SLO tick; off, nothing is registered,
        traced or journaled.  Retention stays inside the journal's ring."""
        runs = {}
        for observe in (True, False):
            dep = replace(e9_spec(20), health=True).deploy(Simulator(observe=observe))
            launch_e9_attacks(dep)
            dep.run(until=600.0)
            assert not any(d.is_compromised() for d in dep.devices.values())
            runs[observe] = dep
        on, off = runs[True], runs[False]
        ticks = on.health_plane.slos.ticks
        assert ticks > 0 and off.health_plane.slos.ticks == 0
        assert on.sim.events_processed == off.sim.events_processed + ticks
        assert on.health_plane.health.rollup() == "ok"
        assert on.health_plane.slos.breach_total() == 0
        assert len(off.sim.metrics) == 0 and off.sim.tracer.started == 0
        assert off.sim.journal.recorded == 0
        journal = on.sim.journal
        assert len(on.sim.metrics) > 0 and on.sim.tracer.started > 0
        assert 0 < len(journal) <= journal.segment_size * journal.max_segments


class AppendOnly:
    """Takes appends and refuses every read (no ``len``, iteration or index)."""

    def __init__(self):
        self.appended = 0

    def append(self, item):
        self.appended += 1


class TestNoCheckerReadsComponentLists:
    def test_plane_and_summary_do_not_read_the_reaction_list(self):
        """The standard plan with the pipeline's reaction list replaced by
        one that refuses reads: the same ticks, journal and summary."""

        def run(guard):
            dep, runner = arm_health("standard")
            if guard is not None:
                dep.controller.pipeline.reactions = guard
            dep.run(until=runner.campaign.horizon)
            health = [
                (e.at, e.kind, e.fields)
                for e in dep.sim.journal.entries()
                if e.kind in ("health", "slo-breach", "slo-recover")
            ]
            return measure_health(dep, runner), health, dep.health_plane.ticks

        guard = AppendOnly()
        assert run(guard) == run(None)
        assert guard.appended > 0


class TestInvariants:
    def test_standard_runs_hold_every_invariant(self):
        dep, runner = arm_health("controller")
        dep.run(until=runner.campaign.horizon)
        assert violations(dep) == []
        assert set(INVARIANTS) == {"offload", "alerts-accounted", "posture-never-lowered"}

    def test_an_alert_dropped_at_ingest_uncounted_is_caught(self, monkeypatch):
        dep = build_home(ingest=IngestConfig(capacity=1, service_time=1.0))
        alert = {"device": "cam", "kind": "port-scan", "detail": {}}
        monkeypatch.setattr(dep.controller.ingest, "_drop", lambda cls: None)
        for __ in range(3):
            dep.controller._on_alert(alert, 0.0)
        dep.run(until=5.0)
        assert violations(dep) == [
            "alerts-accounted: 3 alerts reached a controller, 1 processed, shed or queued"
        ]

    def test_a_revival_that_lowers_a_posture_is_caught(self):
        dep = build_home()
        journal = dep.sim.journal
        summaries = ("quarantine(firewall)", None, "monitor(packet_logger)", None, "allow(allow)")
        kinds = ("posture", "controller-crash", "posture", "controller-restart", "posture")
        for kind, summary in zip(kinds, summaries):
            journal.record(kind, device="cam", **({"summary": summary} if summary else {}))
        (found,) = violations(dep)
        assert found.startswith("posture-never-lowered: cam lowered to monitor(packet_logger)")


class TestHealthScenarios:
    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown health plan"):
            run_health_scenario("meteor-strike")

    def test_standard_seeded_run_is_all_green(self):
        out = run_health_scenario("none")
        assert out["enabled"] is True
        assert out["rollup"] == "ok"
        assert out["slo_breaches"] == 0
        assert all(state == "ok" for state in out["subsystems"].values())

    def test_controller_crash_breaches_blind_window_and_recovers(self):
        out = run_health_scenario("controller")
        assert out["slo_breaches"] >= 1
        assert out["matched_recoveries"] >= 1
        slos = {e["slo"] for e in out["breach_events"]}
        assert "failover-blind-window" in slos
        blind = next(
            e for e in out["breach_events"] if e["slo"] == "failover-blind-window"
        )
        assert blind["severity"] == "critical"
        assert blind["trace"] is not None
        # The standby took over, so the run ends healthy again.
        assert out["rollup"] == "ok"
        assert out["health_transitions"] >= 2

    def test_scenarios_are_deterministic(self):
        a = run_health_scenario("controller")
        b = run_health_scenario("controller")
        a_events = [(e["at"], e["slo"]) for e in a["breach_events"]]
        b_events = [(e["at"], e["slo"]) for e in b["breach_events"]]
        assert a_events == b_events
        assert a["events"] == b["events"]


class TestIncidentInterleaving:
    def test_breach_quarantine_and_replay_share_one_device_timeline(self):
        # One long-partition run in which the camera's timeline must
        # interleave all three planes: a DLQ quarantine (poison record
        # at t=30), the partition's SLO breach (t~60), and the
        # post-heal stream replay of a record buffered mid-outage.
        poison = {
            "device": "cam",
            "kind": "x" * 65,  # fails validate_record -> bad-kind
            "mbox": "m1",
            "detail": {},
            "trace": None,
        }
        buffered = {
            "device": "cam",
            "kind": "port-scan",
            "mbox": "m1",
            "detail": {},
            "trace": None,
        }

        dep, runner = arm_health("long-partition")
        dep.sim.schedule_at(30.0, lambda: dep.host_stream.offer("port-scan", poison))
        dep.sim.schedule_at(100.0, lambda: dep.host_stream.offer("port-scan", buffered))
        dep.run(until=runner.campaign.horizon)
        out = measure_health(dep, runner)
        assert out["slo_breaches"] >= 1 and out["matched_recoveries"] >= 1

        incident = reconstruct(
            dep.sim, "cam", dlq=dep.controller.dlq, site_events=True
        )
        kinds = {e["kind"] for e in incident.timeline}
        assert {"slo-breach", "slo-recover", "dlq-quarantine", "stream-replay"} <= kinds

        first = {
            e["kind"]: e
            for e in reversed(incident.timeline)  # keep the earliest of each kind
        }
        assert first["dlq-quarantine"]["source"] == "dlq"
        assert first["slo-breach"]["source"] == "site"
        assert first["stream-replay"]["source"] == "site"
        assert first["dlq-quarantine"]["detail"]["reason"] == "bad-kind"
        assert first["slo-breach"]["trace_id"] is not None
        # The three planes interleave in causal order on one timeline:
        # quarantine (pre-partition) < breach (partition onset) < replay
        # (post-heal catch-up).
        assert (
            first["dlq-quarantine"]["at"]
            < first["slo-breach"]["at"]
            < first["stream-replay"]["at"]
        )
        assert first["stream-replay"]["detail"]["lag"] > 5.0
        # And the timeline itself is globally time-ordered.
        stamps = [(e["at"], e["seq"]) for e in incident.timeline]
        assert stamps == sorted(stamps)
        # Device-scoped journal evidence still anchors the timeline.
        assert any(e["source"] == "journal" for e in incident.timeline)

    def test_site_events_stay_out_of_default_timelines(self):
        dep, runner = arm_health("controller")
        dep.run(until=runner.campaign.horizon)
        out = measure_health(dep, runner)
        assert out["slo_breaches"] >= 1
        scoped = reconstruct(dep.sim, "cam")
        assert all(e["source"] != "site" for e in scoped.timeline)
        framed = reconstruct(dep.sim, "cam", site_events=True)
        site_kinds = {
            e["kind"] for e in framed.timeline if e["source"] == "site"
        }
        assert "slo-breach" in site_kinds
        assert len(framed.timeline) > len(scoped.timeline)
