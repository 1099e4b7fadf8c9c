"""Tests for the µmbox host node (tunnel termination, boot queue)."""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.mboxes.base import Mbox, MboxHost, Verdict
from repro.mboxes.elements import CommandFilter
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.sdn.tunnel import tunnel_packet


@pytest.fixture
def rig(sim):
    host = MboxHost("cluster", sim)
    switch_side = Host("edge", sim)
    Link(sim, switch_side, host, latency=0.001)
    return host, switch_side


def send_tunnelled(sim, switch_side, payload=None, target="dev", dport=8080):
    inner = Packet(src="attacker", dst=target, dport=dport, payload=payload or {})
    outer = tunnel_packet(inner, ingress="edge", target=target)
    switch_side.send(outer)
    return inner


def test_non_tunnel_traffic_ignored(sim, rig):
    host, switch_side = rig
    switch_side.send(Packet(src="edge", dst="cluster", payload={"x": 1}))
    sim.run()
    assert host.tunnelled_in == 0


def test_unbound_device_fail_closed_by_default(sim, rig):
    host, switch_side = rig
    send_tunnelled(sim, switch_side)
    sim.run()
    assert host.unbound_drops == 1
    assert host.returned == 0


def test_unbound_device_pass_mode(sim, rig):
    host, switch_side = rig
    host.default_verdict = Verdict.PASS
    send_tunnelled(sim, switch_side)
    sim.run()
    assert host.returned == 1
    outer = switch_side.inbox[-1]
    assert outer.payload["inspected"] is True
    assert outer.dst == "edge"


def test_bound_mbox_processes_and_returns(sim, rig):
    host, switch_side = rig
    host.bind("dev", Mbox("m1", "dev", [CommandFilter(deny=["on"])]))
    send_tunnelled(sim, switch_side, {"cmd": "off"})
    sim.run()
    assert host.returned == 1
    inner = switch_side.inbox[-1].payload["inner"]
    assert inner.meta["inspected_devices"] == ["dev"]


def test_bound_mbox_drop_verdict(sim, rig):
    host, switch_side = rig
    host.bind("dev", Mbox("m1", "dev", [CommandFilter(deny=["on"])]))
    send_tunnelled(sim, switch_side, {"cmd": "on"})
    sim.run()
    assert host.returned == 0
    assert len(host.alerts_for("dev")) == 1


def test_direction_annotation(sim, rig):
    host, switch_side = rig
    seen = []

    class Spy(CommandFilter):
        def process(self, packet, ctx):
            seen.append(packet.meta.get("direction"))
            return super().process(packet, ctx)

    host.bind("dev", Mbox("m1", "dev", [Spy(deny=[])]))
    # to the device
    send_tunnelled(sim, switch_side, {"cmd": "x"})
    # from the device
    inner = Packet(src="dev", dst="cloud", payload={})
    switch_side.send(tunnel_packet(inner, ingress="edge", target="dev"))
    sim.run()
    assert seen == ["to_device", "from_device"]


def test_boot_queue_holds_packets_until_ready(sim, rig):
    host, switch_side = rig
    mbox = Mbox("m1", "dev", [])
    mbox.ready = False
    host.bind("dev", mbox)
    send_tunnelled(sim, switch_side, {"cmd": "a"})
    send_tunnelled(sim, switch_side, {"cmd": "b"})
    sim.run()
    assert host.returned == 0
    host.mark_ready("dev")
    sim.run()
    assert host.returned == 2


def test_boot_queue_overflow_drops(sim, rig):
    host, switch_side = rig
    host.boot_queue_limit = 3
    mbox = Mbox("m1", "dev", [])
    mbox.ready = False
    host.bind("dev", mbox)
    for i in range(5):
        send_tunnelled(sim, switch_side, {"cmd": str(i)})
    sim.run()
    assert host.unbound_drops == 2
    host.mark_ready("dev")
    sim.run()
    assert host.returned == 3


def test_unbind_clears_queue(sim, rig):
    host, switch_side = rig
    mbox = Mbox("m1", "dev", [])
    mbox.ready = False
    host.bind("dev", mbox)
    send_tunnelled(sim, switch_side, {"cmd": "x"})
    sim.run()
    host.unbind("dev")
    host.mark_ready("dev")  # no-op after unbind
    sim.run()
    assert host.returned == 0


def test_inner_packet_not_mutated_across_inspection(sim, rig):
    host, switch_side = rig
    host.bind("dev", Mbox("m1", "dev", []))
    inner = send_tunnelled(sim, switch_side, {"cmd": "x"})
    sim.run()
    # the original inner packet is untouched; the returned copy carries meta
    assert "direction" not in inner.meta
    returned = switch_side.inbox[-1].payload["inner"]
    assert returned.pkt_id != inner.pkt_id


class TestSenderPacketIsNeverShared:
    """Inspection works on copies: whatever a rewriting element or the
    return path writes, the sender's ``Packet`` object does not see it."""

    @staticmethod
    def site(cam_mitigation="password_proxy"):
        dep = SecuredDeployment.build()
        dep.add_device(smart_camera, "cam")
        dep.add_device(smart_plug, "plug")
        dep.finalize()
        dep.secure(
            "cam", build_recommended_posture(cam_mitigation, "cam", sku=dep.devices["cam"].sku)
        )
        dep.secure("plug", build_recommended_posture("monitor", "plug", sku=dep.devices["plug"].sku))
        dep.run(until=1.0)  # µmboxes booted
        received = {name: [] for name in dep.devices}
        for name, device in dep.devices.items():
            handle = device.on_packet
            device.on_packet = (  # type: ignore[method-assign]
                lambda packet, in_port, n=name, h=handle: (received[n].append(packet), h(packet, in_port))
            )
        return dep, received

    def test_password_proxy_rewrites_a_copy(self):
        dep, received = self.site()
        original = protocol.login("hub", "cam", "admin", "S3cure!gateway")
        payload, meta = original.payload, original.meta
        dep.hub.send(original)
        dep.run(until=2.0)
        (arrived,) = received["cam"]
        assert arrived.payload["password"] == "admin"  # rewritten for the device
        assert arrived is not original
        assert original.payload is payload and payload["password"] == "S3cure!gateway"
        assert original.meta is meta and meta == {}
        assert arrived.meta["inspected_devices"] == ["cam"]

    def test_two_mbox_visit_shares_no_inspected_list(self):
        # a monitor chain on the camera: it is blind to nothing, so the
        # camera's own traffic is not offloaded past its µmbox
        dep, received = self.site(cam_mitigation="monitor")
        at_cluster = []
        handle = dep.cluster.on_packet
        dep.cluster.on_packet = (  # type: ignore[method-assign]
            lambda packet, in_port: (at_cluster.append(packet.payload["inner"]), handle(packet, in_port))
        )
        # device-to-device: inspected by the camera's µmbox on the way out,
        # then re-tunnelled by the controller into the plug's on the way in
        original = protocol.command("cam", "plug", "on")
        payload = original.payload
        dep.devices["cam"].send(original)
        dep.run(until=2.0)
        (arrived,) = received["plug"]
        first_visit, second_visit = at_cluster[:2]  # then the plug's reply
        assert first_visit is original and original.meta == {}
        assert original.payload is payload and original.trace == ["cam"]
        assert second_visit.meta["inspected_devices"] == ["cam"]
        assert arrived.meta["inspected_devices"] == ["cam", "plug"]
        assert arrived is not second_visit and second_visit is not original
        assert arrived.payload == payload and arrived.payload is not payload
        assert arrived.payload is not second_visit.payload
        assert arrived.meta is not second_visit.meta
        assert arrived.trace[0] == "cam" and arrived.trace is not original.trace
