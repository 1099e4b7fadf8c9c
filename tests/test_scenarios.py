"""Integration tests for the paper's narrative attack campaigns."""

from repro.core.deployment import SecuredDeployment
from repro.faults.campaign import CampaignRunner
from repro.faults.campaign_library import FIG3_BREAK_IN
from repro.faults.scenario import arm_fig5, arm_thermal


def opened(window):
    """Breached: the actuator's own log shows it opening at some point."""
    return any(r.state_after == "open" for r in window.command_log)


def finish(armed):
    """Run an armed scenario to its campaign's horizon."""
    dep, runner = armed
    dep.run(until=runner.campaign.horizon)
    return dep, runner


class TestThermalBreakIn:
    """Section 2.1: plug off -> heat -> cool-down recipe opens the window."""

    def test_current_world_breached_without_touching_the_window(self):
        dep, runner = finish(arm_thermal(protect=False))
        ac, win = dep.devices["ac_plug"], dep.devices["window"]
        assert runner.exploit_results["plug_backdoor_off"].succeeded
        assert ac.state == "off"           # stage 1 landed
        assert win.state == "open"         # physics + automation did the rest
        assert opened(win)
        # the attacker never sent a packet to the window
        assert all(r.src != "attacker" for r in win.command_log)

    def test_iotsec_blocks_the_backdoor_stage(self):
        dep, runner = finish(arm_thermal(protect=True))
        ac, win = dep.devices["ac_plug"], dep.devices["window"]
        assert not runner.exploit_results["plug_backdoor_off"].succeeded
        assert ac.state == "on"            # backdoor command dropped
        assert win.state == "closed"
        assert not opened(win)
        assert any(a.kind == "signature-match" for a in dep.alerts("ac_plug"))


class TestOvenArson:
    """Fig. 5's hazard: oven powered remotely while nobody is home."""

    def test_current_world_smoke_and_alarm(self):
        dep, runner = finish(arm_fig5(protect=False))
        plug, alarm = dep.devices["wemo"], dep.devices["alarm"]
        assert runner.exploit_results["oven_plug_backdoor_on"].succeeded
        assert plug.state == "on"
        assert dep.env.level("smoke") == "detected"
        assert alarm.state == "alarm"  # the physical cascade tripped it

    def test_iotsec_context_gate_blocks_when_absent(self):
        dep, runner = finish(arm_fig5(protect=True))
        plug, alarm = dep.devices["wemo"], dep.devices["alarm"]
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
