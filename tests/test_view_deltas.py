"""Device telemetry as view deltas: change-only, heartbeat, resync.

A telemetry tap forwards a device's report only when its ``(state,
readings)`` differs from the last one it sent, or when
``TELEMETRY_HEARTBEAT`` has passed since; a new controller (standby
takeover, restart from a checkpoint) makes every tap forget, so each
device's next report reaches the new view.
"""

from __future__ import annotations

import math

import pytest

from repro.core.deployment import CHANNEL_LATENCY, DeviceSpec, SiteSpec
from repro.devices.library import smart_camera, smart_plug
from repro.mboxes.base import MboxContext
from repro.mboxes.elements import TELEMETRY_HEARTBEAT, TelemetryTap
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator

PERIOD = 2.0
#: Slack for a delta's trip to the controller: the channel, plus the
#: stream's flush delay when durable.
TRIP = 0.1


def _report(state: str, readings: dict[str, str]) -> Packet:
    packet = Packet(
        src="dev", dst="hub", payload={"action": "telemetry", "state": state, "readings": readings}
    )
    packet.direction = "from_device"
    return packet


def _tap_run(reports: list[tuple[float, str, dict[str, str]]]) -> list[tuple[float, str]]:
    """Feed ``(at, state, readings)`` reports to one tap; what it forwarded."""
    sim = Simulator()
    forwarded: list[tuple[float, str]] = []
    ctx = MboxContext(
        sim=sim,
        mbox_name="m",
        device="dev",
        view=lambda key: None,
        emit_alert=lambda alert: pytest.fail(f"a report raised an alert: {alert}"),
        emit_delta=lambda device, state, readings: forwarded.append((sim.now, state)),
    )
    tap = TelemetryTap()
    for at, state, readings in reports:
        sim.schedule_at(at, tap.process, _report(state, readings), ctx)
    sim.run()
    assert tap.reports == len(reports)
    return forwarded


@pytest.mark.parametrize("period, horizon", [(2.0, 100.0), (3.0, 90.0), (5.0, 300.0), (1.0, 29.0)])
def test_identical_reports_forward_one_per_heartbeat(period, horizon):
    n = int(horizon / period) + 1
    reports = [(i * period, "idle", {"temp": "normal"}) for i in range(n)]
    forwarded = _tap_run(reports)
    assert len(forwarded) == 1 + math.floor(horizon / TELEMETRY_HEARTBEAT)
    assert forwarded[0][0] == 0.0


def test_a_changed_report_always_goes_through():
    states = ["idle", "idle", "on", "on", "on", "idle", "on", "on"]
    reports = [(i * PERIOD, state, {}) for i, state in enumerate(states)]
    reports += [(20.0, "on", {"temp": "high"}), (22.0, "on", {"temp": "high"})]
    forwarded = _tap_run(reports)
    assert forwarded == [(0.0, "idle"), (4.0, "on"), (10.0, "idle"), (12.0, "on"), (20.0, "on")]


def _site(**planes):
    options = {"report_to": "hub", "telemetry_period": PERIOD}
    return SiteSpec(
        devices=(DeviceSpec(smart_camera, "cam", options), DeviceSpec(smart_plug, "plug", options)),
        start_telemetry=True,
        postures="baseline",  # monitor chains: every report crosses a tap
        **planes,
    ).deploy()


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
def test_standby_hears_an_unchanged_device_after_takeover(durable):
    dep = _site(checkpointing=True, checkpoint_period=1.0, standby=True, ha_seed=7,
                durable_telemetry=durable)
    standby = dep.standby_controller
    bind = standby.on_takeover
    taken_at: list[float] = []
    heard: dict[str, float] = {}

    def on_takeover(controller):
        bind(controller)
        taken_at.append(dep.sim.now)
        apply = controller._apply_delta

        def spy(body):
            heard.setdefault(body["device"], dep.sim.now)
            apply(body)

        controller._apply_delta = spy

    standby.on_takeover = on_takeover
    dep.sim.schedule_at(5.0, dep.crash_controller)
    dep.run(until=5.0 + TELEMETRY_HEARTBEAT)

    (at,) = taken_at
    # Neither device changed state, so only the resync makes the taps
    # speak before their heartbeat: each is heard one report period on.
    assert set(heard) == set(dep.devices)
    assert all(heard[name] - at <= PERIOD + TRIP for name in dep.devices)


def test_restored_view_learns_a_change_made_after_its_checkpoint():
    dep = _site(checkpointing=True, checkpoint_period=5.0)
    plug = dep.devices["plug"]
    dep.sim.schedule_at(11.0, plug.apply_command, "on", "hub", "test")
    dep.run(until=13.0)
    assert dep.controller.view.get("dev:plug") == "on"  # reported at t=12

    # Restarted from inside the event loop, as a fault plan restarts it.
    restored = []
    dep.crash_controller()
    dep.sim.schedule(0.0, lambda: restored.append(dep.restart_controller()))
    dep.run(until=13.0 + CHANNEL_LATENCY)
    (controller,) = restored
    assert dep.checkpoint_store.latest().at == 10.0
    assert controller.view.get("dev:plug") == "off"  # the checkpoint's view

    dep.run(until=13.0 + PERIOD + TRIP)
    assert controller.view.get("dev:plug") == "on"


@pytest.mark.parametrize("in_loop", [False, True], ids=["direct", "in-loop"])
def test_a_restart_keeps_the_monitor_baseline(in_loop):
    """Restore never lowers a defense: whether the restart is called
    directly or scheduled inside the event loop, registering the devices
    flushes no round of default postures."""
    dep = _site(checkpointing=True, checkpoint_period=5.0)
    dep.run(until=11.0)

    def postures():
        return {name: posture.name for name, posture in dep.orchestrator.current.items()}

    assert postures() == {"cam": "monitor", "plug": "monitor"}
    dep.crash_controller()
    if in_loop:
        dep.sim.schedule(0.0, dep.restart_controller)
        dep.run(until=11.0 + CHANNEL_LATENCY)
    else:
        dep.restart_controller()
    assert postures() == {"cam": "monitor", "plug": "monitor"}
