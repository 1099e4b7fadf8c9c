"""Figure 4 reproduction: patching an exposed password at the network.

"In Figure 4, we use a D-link surveillance camera which ships with a
hardcoded admin password that the user has no interface to delete ... the
µmbox can enforce the use of a new administrator-chosen password."

The bench reports the four access outcomes the figure implies:

====================  =============  ==========
who / credential      current world  with IoTSec
====================  =============  ==========
attacker, admin/admin    IN             blocked
attacker, dictionary     IN             blocked
admin, new password      n/a            IN
====================  =============  ==========
"""

from __future__ import annotations

from _util import print_table, record

from repro.devices import protocol
from repro.faults.scenario import FIG4_NEW_PASSWORD, arm_fig4, measure_fig4


def run(protect: bool) -> dict:
    dep, runner = arm_fig4(protect)
    # The administrator, on the LAN, logs in with the new password.
    admin = dep.add_attacker("admin_laptop", latency=0.001)
    admin_replies: list = []
    dep.sim.schedule(
        1.0,
        lambda: admin.request(
            protocol.login("admin_laptop", "cam", "admin", FIG4_NEW_PASSWORD),
            admin_replies.append,
        ),
    )
    dep.run(until=runner.campaign.horizon)
    return {
        **measure_fig4(dep, runner),
        "admin_login_ok": bool(admin_replies) and protocol.is_ok(admin_replies[0]),
    }


def test_fig4_password_proxy(scenario_benchmark):
    def run_both():
        return run(False), run(True)

    bare, guarded = scenario_benchmark(run_both)

    print_table(
        "Figure 4: hardcoded-password camera behind the password proxy",
        ["Access", "Current world", "With IoTSec"],
        [
            (
                "attacker w/ vendor default",
                "IN" if bare["default_cred_hijack"] else "blocked",
                "IN" if guarded["default_cred_hijack"] else "blocked",
            ),
            (
                "attacker w/ dictionary",
                "IN" if bare["brute_force"] else "blocked",
                "IN" if guarded["brute_force"] else "blocked",
            ),
            (
                "administrator w/ new password",
                "IN (proxyless: any password = vendor's)"
                if bare["admin_login_ok"]
                else "needs vendor default",
                "IN" if guarded["admin_login_ok"] else "blocked",
            ),
            ("images exfiltrated", bare["images_exfiltrated"], guarded["images_exfiltrated"]),
            (
                "attacker traffic reached device",
                bare["device_saw_attacker_login"],
                guarded["device_saw_attacker_login"],
            ),
        ],
    )
    record(scenario_benchmark, "bare", bare)
    record(scenario_benchmark, "guarded", guarded)

    assert bare["default_cred_hijack"] and bare["images_exfiltrated"] >= 1
    assert not guarded["default_cred_hijack"]
    assert not guarded["brute_force"]
    assert guarded["images_exfiltrated"] == 0
    assert guarded["admin_login_ok"]
    assert not guarded["device_saw_attacker_login"]
    assert guarded["alerts"] >= 1
