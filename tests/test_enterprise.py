"""Tests for multi-switch (enterprise) deployments.

Section 2.2's enterprise model: devices hang off per-room access switches,
all tunnelling to one on-premise security cluster behind the core.
"""

import pytest

from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.policy.posture import block_commands


@pytest.fixture
def enterprise():
    dep = SecuredDeployment.build()
    dep.add_room("room1")
    dep.add_room("room2")
    dep.add_device(smart_camera, "cam1", room="room1")
    dep.add_device(smart_plug, "plug2", room="room2")
    dep.add_attacker()
    dep.finalize()
    return dep


def test_rooms_are_switches(enterprise):
    assert enterprise.rooms["room1"].name == "room1"
    assert enterprise.topology.next_hop_port("room1", "cluster") is not None


def test_traffic_flows_unprotected(enterprise):
    attacker = enterprise.attackers["attacker"]
    replies = []
    attacker.request(
        protocol.login("attacker", "cam1", "admin", "admin"), replies.append
    )
    enterprise.run(until=2.0)
    assert len(replies) == 1 and protocol.is_ok(replies[0])


def test_room_device_tunnel_traverses_core_to_cluster(enterprise):
    enterprise.secure(
        "cam1",
        build_recommended_posture("monitor", "cam1", sku="dlink:DCS-930L:1.0"),
    )
    enterprise.run(until=0.5)
    attacker = enterprise.attackers["attacker"]
    replies = []
    attacker.request(
        protocol.login("attacker", "cam1", "admin", "admin"), replies.append
    )
    enterprise.run(until=3.0)
    assert enterprise.cluster.tunnelled_in >= 2
    assert len(replies) == 1  # monitor posture observes but passes


def test_room_device_protected_across_core(enterprise):
    enterprise.secure(
        "cam1",
        build_recommended_posture(
            "password_proxy", "cam1", new_password="S3cure!gateway"
        ),
    )
    enterprise.run(until=0.5)
    attacker = enterprise.attackers["attacker"]
    result = EXPLOITS["default_credential_hijack"].launch(
        attacker, "cam1", enterprise.sim
    )
    enterprise.run(until=10.0)
    assert not result.succeeded
    assert enterprise.devices["cam1"].login_log == []


def test_cross_room_device_to_device_inspection(enterprise):
    enterprise.secure("plug2", block_commands("on"))
    enterprise.run(until=0.5)
    cam = enterprise.devices["cam1"]
    cam.send(
        protocol.command("cam1", "plug2", "on", dport=8080),
        next(iter(cam.ports)),
    )
    enterprise.run(until=3.0)
    assert enterprise.devices["plug2"].state == "off"
    assert any(a.kind == "command-blocked" for a in enterprise.alerts("plug2"))


def test_alerts_escalate_from_room_devices(enterprise):
    enterprise.secure("plug2", block_commands("on"))
    enterprise.run(until=0.5)
    attacker = enterprise.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug2", "on", dport=8080))
    enterprise.run(until=3.0)
    ingests = enterprise.sim.journal.entries(kind="alert-ingest", device="plug2")
    assert len(ingests) == 1


def test_many_rooms_scale():
    dep = SecuredDeployment.build()
    for i in range(8):
        dep.add_room(f"room{i}")
        dep.add_device(smart_plug, f"plug{i}", room=f"room{i}")
    attacker = dep.add_attacker()
    dep.finalize()
    for i in range(8):
        dep.secure(f"plug{i}", block_commands("on"))
    dep.run(until=0.5)
    for i in range(8):
        attacker.fire_and_forget(
            protocol.command("attacker", f"plug{i}", "on", dport=8080)
        )
    dep.run(until=5.0)
    for i in range(8):
        assert dep.devices[f"plug{i}"].state == "off"
    assert dep.manager.active_count() == 8
