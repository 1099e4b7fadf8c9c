"""Tests for the deployment harness."""

import pytest

from repro.core.deployment import CHANNEL_LATENCY, SecuredDeployment, default_home_environment
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.policy.context import SUSPICIOUS


def test_default_home_environment_variables(sim):
    env = default_home_environment(sim)
    assert set(env.variables) == {
        "temperature",
        "smoke",
        "illuminance",
        "occupancy",
        "window",
        "door",
    }
    assert env.level("temperature") == "normal"
    assert len(env.processes) == 3


def test_standard_nodes_present():
    dep = SecuredDeployment.build()
    for name in ("edge", "internet", "hub", "cluster"):
        assert name in dep.topology


def test_without_iotsec_has_no_cluster():
    dep = SecuredDeployment.build(with_iotsec=False)
    assert dep.cluster is None
    assert dep.orchestrator is None
    dep.add_device(smart_camera, "cam")
    dep.finalize()
    assert dep.controller is None
    assert dep.alerts() == []


def test_without_iotsec_traffic_flows():
    dep = SecuredDeployment.build(with_iotsec=False)
    dep.add_device(smart_camera, "cam")
    attacker = dep.add_attacker()
    dep.finalize()
    replies = []
    attacker.request(
        protocol.login("attacker", "cam", "admin", "admin"), replies.append
    )
    dep.run(until=2.0)
    assert len(replies) == 1 and protocol.is_ok(replies[0])


def test_add_device_registers_attachment_and_pairing():
    dep = SecuredDeployment.build()
    cam = dep.add_device(smart_camera, "cam")
    assert "cam" in dep.orchestrator.attachments
    assert any(user == "owner" for user in cam.sessions.values())


def test_add_device_unpaired():
    dep = SecuredDeployment.build()
    cam = dep.add_device(smart_camera, "cam", pair_with_hub=False)
    assert cam.sessions == {}


def test_default_policy_covers_all_devices():
    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.finalize()
    assert set(dep.policy.devices) == {"cam", "plug"}
    # suspicious -> firewall; compromised -> quarantine for each device
    assert len(dep.policy.rules) == 4


def test_enforce_baseline_gives_every_device_a_posture():
    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.finalize()
    dep.enforce_baseline()
    for name in ("cam", "plug"):
        posture = dep.orchestrator.posture_of(name)
        assert posture is not None and not posture.is_permissive


def test_secure_before_finalize_autofinalizes():
    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    from repro.policy.posture import block_commands

    dep.secure("cam", block_commands("stop"))
    assert dep.controller is not None


def test_secure_without_iotsec_raises():
    dep = SecuredDeployment.build(with_iotsec=False)
    dep.add_device(smart_camera, "cam")
    from repro.policy.posture import block_commands

    with pytest.raises(RuntimeError):
        dep.secure("cam", block_commands("stop"))


def test_attach_repository_feeds_ids(sim):
    from repro.core.orchestrator import build_recommended_posture
    from repro.learning.repository import CrowdRepository
    from repro.learning.signatures import default_credential_signature

    dep = SecuredDeployment.build(sim=sim)
    cam = dep.add_device(smart_camera, "cam")
    attacker = dep.add_attacker()
    dep.finalize()
    repo = CrowdRepository(sim)
    repo.publish(default_credential_signature(cam.sku), reporter="other-site")
    dep.attach_repository(repo)
    dep.secure("cam", build_recommended_posture("monitor", "cam", sku=cam.sku))
    dep.run(until=0.5)
    attacker.fire_and_forget(protocol.login("attacker", "cam", "admin", "admin"))
    dep.run(until=2.0)
    assert any(a.kind == "signature-match" for a in dep.alerts("cam"))
    assert dep.controller.context_of("cam") == SUSPICIOUS


def test_alert_flows_over_control_channel_with_latency():
    dep = SecuredDeployment.build()
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    from repro.policy.posture import block_commands

    dep.secure("plug", block_commands("on"))
    dep.run(until=0.2)
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    dep.run(until=5.0)
    (ingest,) = dep.sim.journal.entries(kind="alert-ingest", device="plug")
    assert ingest.at == ingest.fields["sent_at"] + CHANNEL_LATENCY


def test_finalize_idempotent():
    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    dep.finalize()
    controller = dep.controller
    dep.finalize()
    assert dep.controller is controller


def test_repository_pushes_live_signatures_to_running_ids(sim):
    """A signature published *after* the µmbox is running still lands."""
    from repro.core.orchestrator import build_recommended_posture
    from repro.devices import protocol as proto
    from repro.devices.library import smart_camera as cam_factory
    from repro.learning.repository import CrowdRepository
    from repro.learning.signatures import default_credential_signature

    dep = SecuredDeployment.build(sim=sim)
    cam = dep.add_device(cam_factory, "cam")
    attacker = dep.add_attacker()
    dep.finalize()
    repo = CrowdRepository(sim, free_rider_delay=5.0)
    dep.attach_repository(repo)
    dep.secure("cam", build_recommended_posture("monitor", "cam", sku=cam.sku))
    dep.run(until=1.0)
    # mbox is live with zero signatures; now the crowd learns the attack
    repo.publish(default_credential_signature(cam.sku), reporter="remote-site")
    dep.run(until=20.0)  # past the free-rider delay
    attacker.fire_and_forget(proto.login("attacker", "cam", "admin", "admin"))
    dep.run(until=30.0)
    assert any(a.kind == "signature-match" for a in dep.alerts("cam"))
    assert cam.login_log == []  # dropped before reaching the device
