"""Figure 3 reproduction: the FSM policy abstraction in action.

The figure's FSM has three illustrated states for the (FireAlarm, Window)
pair and two attack transitions:

1. "FireAlarm backdoor accessed"  -> FireAlarm becomes suspicious ->
   posture: Window gets "Block 'open' + FW".
2. "Window password brute-forced" -> Window becomes suspicious ->
   posture: Window gets "Robot Check + FW" (we model the robot check as a
   source filter admitting only the hub/controller).

The bench replays both transitions against the current world and against
IoTSec and reports the state/posture timeline plus reaction latency.
"""

from __future__ import annotations

from _util import print_table, record

from repro.core.deployment import SecuredDeployment
from repro.devices.library import (
    FIREALARM_BACKDOOR_PORT,
    fire_alarm,
    window_actuator,
)
from repro.faults.campaign import CampaignRunner
from repro.faults.campaign_library import FIG3_BREAK_IN
from repro.learning.repository import CrowdRepository
from repro.learning.signatures import backdoor_signature
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS
from repro.policy.ifttt import Recipe
from repro.policy.posture import MboxSpec, Posture, block_commands


def fig3_policy():
    return (
        PolicyBuilder()
        .device("fire_alarm")
        .device("window")
        .env("smoke", ("clear", "detected"))
        .when("ctx:fire_alarm", SUSPICIOUS)
        .give("window", block_commands("open", name="block-open-fw"), priority=200)
        .when("ctx:window", SUSPICIOUS)
        .give(
            "window",
            Posture.make(
                "robot-check-fw",
                MboxSpec.make("source_filter", allowed_sources=["hub", "controller"]),
            ),
            priority=250,
        )
        .build()
    )


def run(protect: bool) -> dict:
    dep = SecuredDeployment.build()
    dep.policy = fig3_policy()
    fa = dep.add_device(fire_alarm, "fire_alarm")
    win = dep.add_device(window_actuator, "window")
    dep.add_attacker()
    dep.finalize()
    dep.hub.add_recipe(Recipe("ventilate", "dev:fire_alarm", "alarm", "window", "open"))
    dep.hub.watch_devices(
        lambda name: dep.devices[name].state if name in dep.devices else None
    )
    if protect:
        repo = CrowdRepository(dep.sim)
        repo.publish(
            backdoor_signature(fa.sku, FIREALARM_BACKDOOR_PORT), reporter="other-site"
        )
        dep.attach_repository(repo)
        dep.enforce_baseline()
    runner = CampaignRunner(FIG3_BREAK_IN, dep).start()
    dep.run(until=FIG3_BREAK_IN.horizon)

    reactions = (
        [
            {
                "device": r.device,
                "posture": r.posture,
                "trigger": r.trigger_key,
                "latency_ms": r.latency * 1e3,
                "at": r.applied_at,
            }
            for r in dep.controller.reactions
            if not r.posture.startswith("allow")
        ]
        if dep.controller
        else []
    )
    return {
        "breached": any(r.state_after == "open" for r in win.command_log),
        "window_state": win.state,
        "alarm_state": fa.state,
        "fa_context": dep.controller.context_of("fire_alarm") if dep.controller else "-",
        "win_context": dep.controller.context_of("window") if dep.controller else "-",
        "window_posture": (
            dep.orchestrator.posture_of("window").name
            if dep.orchestrator and dep.orchestrator.posture_of("window")
            else "-"
        ),
        "reactions": reactions,
        "stages": {name: r.succeeded for name, r in runner.exploit_results.items()},
    }


def test_fig3_policy_fsm(scenario_benchmark):
    def run_both():
        return run(protect=False), run(protect=True)

    bare, guarded = scenario_benchmark(run_both)

    print_table(
        "Figure 3: FireAlarm + Window policy FSM",
        ["Arm", "Backdoor stage", "Brute-force stage", "Window", "Breached"],
        [
            (
                "current world",
                bare["stages"]["firealarm_backdoor"],
                bare["stages"]["window_brute_force"],
                bare["window_state"],
                bare["breached"],
            ),
            (
                "IoTSec",
                guarded["stages"]["firealarm_backdoor"],
                guarded["stages"]["window_brute_force"],
                guarded["window_state"],
                guarded["breached"],
            ),
        ],
    )
    print_table(
        "Figure 3: IoTSec posture transitions (the FSM walking)",
        ["t (s)", "Trigger", "Device", "New posture", "Reaction (ms)"],
        [
            (f"{r['at']:.3f}", r["trigger"], r["device"], r["posture"], f"{r['latency_ms']:.2f}")
            for r in guarded["reactions"]
        ],
    )
    record(scenario_benchmark, "bare", {k: v for k, v in bare.items() if k != "reactions"})
    record(scenario_benchmark, "guarded", {k: v for k, v in guarded.items() if k != "reactions"})

    assert bare["breached"] and bare["window_state"] == "open"
    assert not guarded["breached"] and guarded["window_state"] == "closed"
    assert guarded["fa_context"] == SUSPICIOUS
    assert guarded["window_posture"] in ("block-open-fw", "robot-check-fw")
    # reaction latency: order of control-channel milliseconds, not seconds
    assert all(r["latency_ms"] < 100.0 for r in guarded["reactions"])
