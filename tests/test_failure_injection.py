"""Failure-injection tests: the system under partial failure.

A defence that only works on the happy path is not a defence.  These
tests break links, channels, and capacity mid-scenario and check the
system degrades the way it promises to (fail-closed where it matters).
"""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.mboxes.base import Verdict
from repro.policy.posture import block_commands


def find_link(dep, a, b):
    for link in dep.topology.links:
        names = {link.a.name, link.b.name}
        if names == {a, b}:
            return link
    raise AssertionError(f"no link {a}<->{b}")


class TestClusterLinkFailure:
    def test_tunnelled_device_fails_closed_when_cluster_unreachable(self):
        """With the cluster link down, tunnelled traffic is lost -- the
        device becomes unreachable rather than unprotected."""
        dep = SecuredDeployment.build()
        dep.add_device(smart_plug, "plug")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        dep.run(until=0.5)
        find_link(dep, "edge", "cluster").fail()
        attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
        dep.run(until=5.0)
        assert dep.devices["plug"].state == "off"  # attack never landed
        assert dep.cluster.tunnelled_in == 0

    def test_restored_link_resumes_protection(self):
        dep = SecuredDeployment.build()
        dep.add_device(smart_plug, "plug")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        dep.run(until=0.5)
        link = find_link(dep, "edge", "cluster")
        link.fail()
        dep.run(until=1.0)
        link.restore()
        attacker.fire_and_forget(protocol.command("attacker", "plug", "off", dport=8080))
        dep.run(until=5.0)
        # benign-looking command traverses the restored tunnel
        assert dep.cluster.tunnelled_in >= 1


class TestControlChannelOutage:
    def test_alerts_lost_but_data_plane_still_blocks(self):
        """If the controller is unreachable, alerts go undelivered -- but
        the µmbox keeps enforcing its last posture."""
        dep = SecuredDeployment.build()
        dep.add_device(smart_plug, "plug")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        dep.run(until=0.5)
        dep.channel.unregister(dep.CONTROLLER)  # controller "crashes"
        attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
        dep.run(until=5.0)
        assert dep.devices["plug"].state == "off"
        assert dep.channel.undeliverable >= 1
        assert sum(c.value for c in dep.sim.metrics.series("controller_alerts")) == 0


class TestCapacityExhaustion:
    def test_manager_capacity_raises_not_silently_unprotected(self):
        dep = SecuredDeployment.build()
        for i in range(3):
            dep.add_device(smart_plug, f"plug{i}")
        dep.finalize()
        dep.manager.capacity = 2
        dep.secure("plug0", block_commands("on"))
        dep.secure("plug1", block_commands("on"))
        with pytest.raises(RuntimeError):
            dep.secure("plug2", block_commands("on"))


class TestDeviceLinkFailure:
    def test_device_loss_does_not_wedge_the_controller(self):
        dep = SecuredDeployment.build()
        dep.add_device(smart_camera, "cam")
        dep.add_device(smart_plug, "plug")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        dep.run(until=0.5)
        find_link(dep, "edge", "cam").fail()
        # traffic to the dead device goes nowhere; other devices unaffected
        attacker.fire_and_forget(protocol.login("attacker", "cam", "admin", "admin"))
        attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
        dep.run(until=5.0)
        assert dep.devices["cam"].login_log == []
        assert dep.devices["plug"].state == "off"


class TestMboxHostFailClosed:
    def test_unbound_fail_closed_cluster_drops_everything(self, sim):
        """An operator can run the cluster fail-closed: traffic for devices
        with no µmbox is dropped instead of passed."""
        dep = SecuredDeployment.build(sim=sim)
        dep.add_device(smart_plug, "plug")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.cluster.default_verdict = Verdict.DROP
        # install tunnel rules but rip out the mbox binding
        dep.secure("plug", block_commands("on"))
        dep.run(until=0.5)
        dep.cluster.unbind("plug")
        attacker.fire_and_forget(protocol.command("attacker", "plug", "off", dport=8080))
        dep.run(until=5.0)
        assert dep.cluster.unbound_drops == 1
        assert dep.devices["plug"].command_log == []


class TestEnvironmentSensorLoss:
    def test_context_gate_fails_closed_without_occupancy_data(self):
        """If the view has no occupancy information (sensor dead), the
        Fig. 5 gate refuses rather than guesses."""
        dep = SecuredDeployment.build()
        dep.add_device(smart_plug, "wemo")
        attacker = dep.add_attacker()
        dep.finalize()
        from repro.policy.posture import MboxSpec, Posture

        dep.secure(
            "wemo",
            Posture.make(
                "gate",
                MboxSpec.make(
                    "context_gate", commands=["on"], require={"env:nonexistent": "x"}
                ),
            ),
        )
        dep.run(until=0.5)
        attacker.fire_and_forget(protocol.command("attacker", "wemo", "on", dport=8080))
        dep.run(until=5.0)
        assert dep.devices["wemo"].state == "off"
