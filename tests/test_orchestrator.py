"""Tests for posture orchestration and the tunnel data path."""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.policy.posture import ALLOW_ALL, block_commands


@pytest.fixture
def dep():
    deployment = SecuredDeployment.build()
    deployment.add_device(smart_camera, "cam")
    deployment.add_device(smart_plug, "plug")
    deployment.add_attacker()
    deployment.finalize()
    return deployment


def test_apply_installs_tunnel_rules(dep):
    dep.secure("cam", block_commands("stop"))
    rules = dep.edge.rules_for("cam")
    priorities = sorted(r.priority for r in rules)
    # 510/500: the src/dst tunnel rows; 700: the pinned filter's blind flow
    assert priorities == [500, 510, 700, 890, 900]
    assert dep.orchestrator.tunnels.mbox_for("cam") is not None


def test_apply_is_idempotent(dep):
    posture = block_commands("stop")
    dep.secure("cam", posture)
    n_rules = dep.edge.table_size()
    dep.secure("cam", posture)
    assert dep.edge.table_size() == n_rules
    assert dep.manager.reconfigs == 0


def test_posture_change_reconfigures_without_new_rules(dep):
    dep.secure("cam", block_commands("stop"))
    n_rules = dep.edge.table_size()
    dep.secure("cam", block_commands("record", name="other"))
    assert dep.edge.table_size() == n_rules
    assert dep.manager.reconfigs == 1


def test_permissive_posture_removes_tunnel(dep):
    dep.secure("cam", block_commands("stop"))
    dep.secure("cam", ALLOW_ALL)
    assert dep.edge.rules_for("cam") == []
    assert "cam" not in dep.cluster.mboxes


def test_unattached_device_rejected(dep):
    with pytest.raises(KeyError):
        dep.orchestrator.apply("ghost", block_commands("x"))


def test_tunnelled_traffic_traverses_mbox_and_returns(dep):
    """Benign traffic flows through the µmbox transparently."""
    dep.secure("cam", build_recommended_posture("monitor", "cam", sku="s"))
    dep.run(until=0.1)
    attacker = dep.attackers["attacker"]
    replies = []
    attacker.request(
        protocol.login("attacker", "cam", "admin", "admin"),
        lambda r: replies.append(r),
    )
    dep.run(until=2.0)
    assert len(replies) == 1  # monitor posture observes but passes
    assert dep.cluster.tunnelled_in >= 2  # request + reply both inspected
    assert dep.cluster.returned >= 2


def test_drop_verdict_stops_traffic(dep):
    dep.secure("plug", block_commands("on"))
    dep.run(until=0.1)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    dep.run(until=2.0)
    assert dep.devices["plug"].state == "off"
    assert len(dep.alerts("plug")) == 1


def test_device_to_device_traffic_inspected_by_destination_mbox(dep):
    dep.secure("cam", block_commands("record"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=0.1)
    cam = dep.devices["cam"]
    # cam sends a command to plug; plug's mbox blocks "on"
    cam.send(protocol.command("cam", "plug", "on", dport=8080), next(iter(cam.ports)))
    dep.run(until=2.0)
    assert dep.devices["plug"].state == "off"


class TestRecommendedPostures:
    def test_all_mitigations_build(self):
        for mitigation in (
            "password_proxy",
            "stateful_firewall",
            "command_whitelist",
            "dns_guard",
            "quarantine",
            "monitor",
        ):
            posture = build_recommended_posture(mitigation, "dev", sku="a:b:1")
            assert not posture.is_permissive

    def test_unknown_mitigation(self):
        with pytest.raises(KeyError):
            build_recommended_posture("wishful_thinking", "dev")
