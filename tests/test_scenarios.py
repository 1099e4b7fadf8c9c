"""Integration tests for the paper's narrative attack campaigns."""

from repro.core.deployment import SecuredDeployment
from repro.devices.library import (
    fire_alarm,
    smart_plug,
    window_actuator,
)
from repro.environment.physics import ThermalProcess
from repro.faults.campaign import CampaignRunner
from repro.faults.campaign_library import FIG3_BREAK_IN, OVEN_ARSON, THERMAL_BREAK_IN
from repro.learning.repository import CrowdRepository
from repro.learning.signatures import backdoor_signature
from repro.policy.ifttt import Recipe


def opened(window):
    """Breached: the actuator's own log shows it opening at some point."""
    return any(r.state_after == "open" for r in window.command_log)


def hot_summer(dep):
    """Re-park the home in a heat wave: without AC the room overheats."""
    for i, process in enumerate(dep.env.processes):
        if isinstance(process, ThermalProcess):
            dep.env.processes[i] = ThermalProcess(outside=35.0)
    dep.env.continuous("temperature").set(21.0)


class TestThermalBreakIn:
    """Section 2.1: plug off -> heat -> cool-down recipe opens the window."""

    def build(self, protect):
        dep = SecuredDeployment.build()
        ac = dep.add_device(smart_plug, "ac_plug", load={"cool_watts": 700.0})
        win = dep.add_device(window_actuator, "window")
        dep.add_attacker()
        dep.finalize()
        hot_summer(dep)
        ac.apply_command("on", src="hub", via="local")  # AC running
        dep.hub.add_recipe(
            Recipe("cool-down", "env:temperature", "high", "window", "open")
        )
        if protect:
            repo = CrowdRepository(dep.sim)
            repo.publish(
                backdoor_signature(ac.sku, ac.firmware.backdoor_port),
                reporter="another-site",
            )
            dep.attach_repository(repo)
            dep.enforce_baseline()
        runner = CampaignRunner(THERMAL_BREAK_IN, dep).start()
        return dep, runner, ac, win

    def test_current_world_breached_without_touching_the_window(self):
        dep, runner, ac, win = self.build(protect=False)
        dep.run(until=1200.0)
        assert runner.exploit_results["plug_backdoor_off"].succeeded
        assert ac.state == "off"           # stage 1 landed
        assert win.state == "open"         # physics + automation did the rest
        assert opened(win)
        # the attacker never sent a packet to the window
        assert all(r.src != "attacker" for r in win.command_log)

    def test_iotsec_blocks_the_backdoor_stage(self):
        dep, runner, ac, win = self.build(protect=True)
        dep.run(until=1200.0)
        assert not runner.exploit_results["plug_backdoor_off"].succeeded
        assert ac.state == "on"            # backdoor command dropped
        assert win.state == "closed"
        assert not opened(win)
        assert any(a.kind == "signature-match" for a in dep.alerts("ac_plug"))


class TestOvenArson:
    """Fig. 5's hazard: oven powered remotely while nobody is home."""

    def build(self, protect):
        dep = SecuredDeployment.build()
        oven_plug = dep.add_device(
            smart_plug, "oven_plug", load={"hazard": 1.0, "heat_watts": 2000.0}
        )
        alarm = dep.add_device(fire_alarm, "alarm", with_backdoor=False)
        dep.add_attacker()
        dep.finalize()
        if protect:
            from repro.policy.posture import MboxSpec, Posture

            dep.secure(
                "oven_plug",
                Posture.make(
                    "occupancy-gate",
                    MboxSpec.make(
                        "context_gate",
                        commands=["on"],
                        require={"env:occupancy": "present"},
                    ),
                ),
            )
        runner = CampaignRunner(OVEN_ARSON, dep).start()
        return dep, runner, oven_plug, alarm

    def test_current_world_smoke_and_alarm(self):
        dep, runner, plug, alarm = self.build(protect=False)
        dep.run(until=600.0)
        assert runner.exploit_results["oven_plug_backdoor_on"].succeeded
        assert plug.state == "on"
        assert dep.env.level("smoke") == "detected"
        assert alarm.state == "alarm"  # the physical cascade tripped it

    def test_iotsec_context_gate_blocks_when_absent(self):
        dep, runner, plug, alarm = self.build(protect=True)
        dep.run(until=600.0)
        assert not runner.exploit_results["oven_plug_backdoor_on"].succeeded
        assert plug.state == "off"
        assert dep.env.level("smoke") == "clear"
        assert alarm.state == "ok"


class TestFig3Campaign:
    def test_stage_bookkeeping(self, sim):
        dep = SecuredDeployment.build(sim=sim, with_iotsec=False)
        dep.add_attacker()
        assert [s.name for s in FIG3_BREAK_IN.stages] == [
            "firealarm_backdoor",
            "window_brute_force",
        ]
        runner = CampaignRunner(FIG3_BREAK_IN, dep).start()
        dep.run(until=60.0)
        # stages ran (results recorded), but with no devices they failed
        assert runner.stage_statuses() == {
            "firealarm_backdoor": "ok",
            "window_brute_force": "ok",
        }
        assert set(runner.exploit_results) == {"firealarm_backdoor", "window_brute_force"}
        assert not any(r.succeeded for r in runner.exploit_results.values())
