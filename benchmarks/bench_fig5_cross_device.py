"""Figure 5 reproduction: cross-device policy enforcement.

"Our µmbox's policy is set to allow the 'ON' messages to be sent to Wemo
only if the global state identifies a person in the room and, thus, can
prevent a remote attacker from causing damage via the Wemo vulnerability."

Three arms: current world (attack lands), IoTSec with nobody home (attack
blocked by the context gate), IoTSec with a person present (the command is
policy-compliant and flows).  We also verify the physical consequence: in
the unprotected empty-home arm the unattended oven eventually raises smoke.
"""

from __future__ import annotations

from _util import print_table, record

from repro.faults.scenario import arm_fig5, measure_fig5


def run(protect: bool, occupied: bool) -> dict:
    dep, runner = arm_fig5(protect, occupied)
    dep.run(until=runner.campaign.horizon)
    return measure_fig5(dep, runner)


def test_fig5_cross_device_policy(scenario_benchmark):
    def run_all():
        return (
            run(protect=False, occupied=False),
            run(protect=True, occupied=False),
            run(protect=True, occupied=True),
        )

    bare, guarded_empty, guarded_occupied = scenario_benchmark(run_all)

    print_table(
        "Figure 5: 'ON' to the Wemo gated on camera-observed occupancy",
        ["Arm", "Oven powered", "Smoke", "Fire alarm", "Gate blocks"],
        [
            ("current world, nobody home", bare["oven_on"], bare["smoke"], bare["alarm"], "-"),
            (
                "IoTSec, nobody home",
                guarded_empty["oven_on"],
                guarded_empty["smoke"],
                guarded_empty["alarm"],
                guarded_empty["blocked_alerts"],
            ),
            (
                "IoTSec, person present",
                guarded_occupied["oven_on"],
                guarded_occupied["smoke"],
                guarded_occupied["alarm"],
                guarded_occupied["blocked_alerts"],
            ),
        ],
    )
    record(scenario_benchmark, "bare", bare)
    record(scenario_benchmark, "guarded_empty", guarded_empty)
    record(scenario_benchmark, "guarded_occupied", guarded_occupied)

    # Current world: the remote attacker powers the oven; physics follows.
    assert bare["oven_on"] and bare["attack_ok"]
    assert bare["smoke"] == "detected" and bare["alarm"] == "alarm"
    # IoTSec, empty home: blocked before the device, no physical fallout.
    assert not guarded_empty["oven_on"]
    assert guarded_empty["smoke"] == "clear" and guarded_empty["alarm"] == "ok"
    assert guarded_empty["blocked_alerts"] >= 1
    # IoTSec, occupied: the command is policy-compliant and flows.
    assert guarded_occupied["oven_on"]
