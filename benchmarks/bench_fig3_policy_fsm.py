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

from repro.faults.scenario import arm_fig3, measure_fig3
from repro.policy.context import SUSPICIOUS


def run(protect: bool) -> dict:
    dep, runner = arm_fig3(protect)
    dep.run(until=runner.campaign.horizon)
    reactions = [
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
    return {**measure_fig3(dep, runner), "reactions": reactions}


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
