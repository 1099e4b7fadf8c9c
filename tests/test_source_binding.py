"""The edge binds every identity the policy trusts to its own port.

Trust-based elements decide by ``packet.src`` -- the lock's pinned
default-deny firewall trusts the hub and the controller -- so the fabric
must not carry a trusted identity from anywhere else.  Secured devices,
the hub and the controller are bound; unmanaged addresses (the internet,
the attacker, the reflection victim) are not, and the ports to other
switches and to the µmbox cluster are exempt.
"""

from repro.core.deployment import SecuredDeployment
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.faults.campaign_library import CAMPAIGNS, arm_campaign, build_home, measure_campaign
from repro.mboxes.base import SOURCE_FORGERY
from repro.policy.context import COMPROMISED


def forgery_alerts(dep):
    return [
        e for e in dep.sim.journal.entries(kind="alert")
        if e.fields["alert_kind"] == SOURCE_FORGERY
    ]


def test_forged_hub_command_to_the_pinned_lock_is_dropped_at_the_edge():
    dep = build_home(health=False)
    lock = dep.devices["lock"]
    dep.attackers["attacker"].fire_and_forget(protocol.command("hub", "lock", "unlock"))
    dep.run(until=1.0)
    assert lock.rx_count == 0 and lock.state == "locked"
    assert dep.edge.forged == 1
    (alert,) = forgery_alerts(dep)
    assert alert.device == "attacker"
    assert (alert.fields["claimed"], alert.fields["dst"]) == ("hub", "lock")
    assert dep.controller.context_of("attacker") == COMPROMISED


def test_the_hub_speaking_from_its_own_port_passes():
    dep = build_home(health=False)
    dep.hub.send(protocol.command("hub", "lock", "unlock"))
    dep.run(until=1.0)
    assert dep.devices["lock"].rx_count == 1
    assert dep.edge.forged == 0 and forgery_alerts(dep) == []


def test_nobody_speaks_for_the_controller():
    dep = build_home(health=False)
    dep.attackers["attacker"].fire_and_forget(protocol.command("controller", "lock", "unlock"))
    dep.run(until=1.0)
    assert dep.devices["lock"].rx_count == 0 and dep.edge.forged == 1


def test_unmanaged_addresses_stay_unbound():
    dep = build_home(health=False)
    dep.attackers["attacker"].fire_and_forget(protocol.command("victim", "plug", "on", dport=8080))
    dep.run(until=1.0)
    assert dep.edge.forged == 0
    assert dep.devices["plug"].rx_count == 1


def test_a_forging_device_is_escalated():
    """A managed device that claims the hub is the host on that port."""
    dep = SecuredDeployment.build()
    dep.add_device(smart_plug, "plug")
    dep.add_device(smart_camera, "cam")
    dep.finalize()
    dep.devices["plug"].send(protocol.command("hub", "cam", "reboot"))
    dep.run(until=1.0)
    (alert,) = forgery_alerts(dep)
    assert alert.device == "plug"
    assert dep.controller.context_of("plug") == COMPROMISED


def test_a_room_device_is_bound_at_the_core_too():
    dep = SecuredDeployment.build()
    dep.add_room("attic")
    dep.add_device(smart_plug, "plug", room="attic")
    dep.add_device(smart_camera, "cam")
    attacker = dep.add_attacker()
    dep.finalize()
    room = dep.rooms["attic"]
    assert room.bound["plug"] == room.port_to("plug")
    assert dep.edge.bound["plug"] is None
    assert dep.edge.port_to("attic") in dep.edge.trunks
    # The plug's own traffic crosses the core's trunk; a forgery does not.
    dep.devices["plug"].send(protocol.command("plug", "cam", "noop"))
    attacker.fire_and_forget(protocol.command("plug", "cam", "noop"))
    dep.run(until=1.0)
    assert (room.forged, dep.edge.forged) == (0, 1)


def test_hub_impersonation_campaign_is_contained_and_detected():
    campaign = CAMPAIGNS["hub-impersonation-lock"]
    dep, runner = arm_campaign(campaign, seed=1)
    dep.run(until=campaign.horizon)
    score = measure_campaign(dep, runner)
    assert score["stage_statuses"] == {"forge": "ok"}
    assert score["containment_misses"] == []
    assert score["detection_recall"] == 1.0
    fired = runner.results["forge"].fired_at
    first = forgery_alerts(dep)[0]
    assert 0 <= first.at - fired < 1.0  # a finite time to detection
    assert dep.devices["lock"].rx_count == 0 and dep.devices["lock"].state == "locked"
