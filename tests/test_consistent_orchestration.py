"""Tests for the orchestrator's two-phase consistent-update mode."""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.policy.posture import ALLOW_ALL, block_commands


@pytest.fixture
def dep():
    deployment = SecuredDeployment.build(consistent_updates=True)
    deployment.add_device(smart_camera, "cam")
    deployment.add_device(smart_plug, "plug")
    deployment.add_attacker()
    deployment.finalize()
    return deployment


def test_rules_installed_with_version_tags(dep):
    dep.secure("cam", block_commands("stop"))
    dep.run(until=1.0)
    rules = dep.edge.rules_for("cam")
    # two bypasses, two tunnel rules and the pinned command filter's one
    # blind flow (anything the camera sends), all in the same epoch
    assert sorted(r.priority for r in rules) == [500, 500, 700, 890, 900]
    assert all(r.version is not None for r in rules)
    assert dep.edge.active_version == rules[0].version


def test_rules_inactive_before_commit(dep):
    dep.secure("cam", block_commands("stop"))
    # the two-phase commit needs 3 channel legs (2 ms each); before that,
    # the new epoch is installed but not active
    assert dep.edge.active_version is None
    assert dep.edge.lookup(
        protocol.command("attacker", "cam", "stop"), in_port=0
    ) is None
    dep.run(until=1.0)
    assert dep.edge.active_version is not None


def test_traffic_traverses_mbox_after_commit(dep):
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    dep.run(until=3.0)
    assert dep.devices["plug"].state == "off"
    assert len(dep.alerts("plug")) == 1


def test_second_device_epoch_keeps_first_devices_rules(dep):
    dep.secure("cam", block_commands("stop"))
    dep.run(until=1.0)
    dep.secure("plug", block_commands("on"))
    dep.run(until=2.0)
    assert len(dep.edge.rules_for("cam")) == 5
    assert len(dep.edge.rules_for("plug")) == 5
    # all live rules belong to the latest epoch (old one garbage-collected)
    versions = {r.version for r in dep.edge.flow_table}
    assert len(versions) == 1
    assert dep.edge.active_version in versions


def test_removal_epoch_drops_only_that_device(dep):
    dep.secure("cam", block_commands("stop"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    dep.orchestrator.unpin("cam")
    dep.orchestrator.apply("cam", ALLOW_ALL)
    dep.run(until=2.0)
    assert dep.edge.rules_for("cam") == []
    assert len(dep.edge.rules_for("plug")) == 5


def test_both_devices_protected_end_to_end(dep):
    dep.secure("cam", block_commands("record"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    replies = []
    attacker.request(
        protocol.login("attacker", "cam", "admin", "admin"), replies.append
    )
    dep.run(until=3.0)
    assert dep.devices["plug"].state == "off"
    # cam's posture only blocks "record": login still flows through its mbox
    assert len(replies) == 1
