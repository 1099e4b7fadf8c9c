"""Tests for the µmbox host node (tunnel termination, boot queue)."""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.mboxes.base import Mbox, MboxHost, Verdict
from repro.mboxes.elements import CommandFilter
from repro.mboxes.manager import MboxManager
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
    inner = send_tunnelled(sim, switch_side, {"cmd": "off"})
    sim.run()
    assert host.returned == 1
    # the envelope it received, turned around, carrying the sender's packet
    (back,) = switch_side.inbox
    assert (back.src, back.dst, back.payload["target"]) == ("cluster", "edge", "dev")
    assert back.payload["inner"] is inner and back.payload["inspected"] is True
    # one hop each way, and the edge's first send still dates the envelope
    assert (switch_side.tx_count, host.rx_count, host.tx_count, switch_side.rx_count) == (
        1, 1, 1, 1
    )
    assert back.created_at == 0.0


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
            seen.append(packet.direction)
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
    host.mark_ready(mbox)
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
    host.mark_ready(mbox)
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
    host.mark_ready(mbox)  # no-op after unbind
    sim.run()
    assert host.returned == 0


def test_inner_packet_not_mutated_across_inspection(sim, rig):
    host, switch_side = rig
    host.bind("dev", Mbox("m1", "dev", [CommandFilter(deny=["on"])]))
    inner = send_tunnelled(sim, switch_side, {"cmd": "x"})
    payload, header = inner.payload, (inner.src, inner.dst, inner.dport, inner.pkt_id)
    sim.run()
    # the chain saw the sender's packet itself; the host wrote only the
    # direction, and neither it nor the chain touched payload or header
    assert switch_side.inbox[-1].payload["inner"] is inner
    assert inner.payload is payload and payload == {"cmd": "x"}
    assert (inner.src, inner.dst, inner.dport, inner.pkt_id) == header
    assert inner.direction == "to_device"


class TestInspectionSeesTheSendersPacket:
    """No inspection copy: the chain and the receiver get the sender's
    ``Packet`` object, except where an element rewrites -- the proxy
    rewrites a copy -- and the return's inspection mark lasts one lookup."""

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

    @staticmethod
    def watch_cluster(dep):
        """``(target, inner)`` of every envelope the cluster receives."""
        at_cluster = []
        handle = dep.cluster.on_packet
        dep.cluster.on_packet = (  # type: ignore[method-assign]
            lambda packet, in_port: (
                at_cluster.append((packet.payload["target"], packet.payload["inner"])),
                handle(packet, in_port),
            )
        )
        return at_cluster

    def test_password_proxy_rewrites_a_copy(self):
        dep, received = self.site()
        original = protocol.login("hub", "cam", "admin", "S3cure!gateway")
        payload = original.payload
        dep.hub.send(original)
        dep.run(until=2.0)
        (arrived,) = received["cam"]
        assert arrived.payload["password"] == "admin"  # rewritten for the device
        assert arrived is not original
        assert original.payload is payload and payload["password"] == "S3cure!gateway"
        assert arrived.direction == "to_device" and arrived.inspected_by is None

    def test_two_mbox_visit_carries_the_senders_packet(self):
        # a monitor chain on the camera: it is blind to nothing, so the
        # camera's own traffic is not offloaded past its µmbox
        dep, received = self.site(cam_mitigation="monitor")
        at_cluster = self.watch_cluster(dep)
        # device-to-device: inspected by the camera's µmbox on the way out,
        # then re-tunnelled by the controller into the plug's on the way in
        original = protocol.command("cam", "plug", "on")
        payload = original.payload
        dep.devices["cam"].send(original)
        dep.run(until=2.0)
        (arrived,) = received["plug"]
        assert at_cluster[:2] == [("cam", original), ("plug", original)]  # then the reply
        assert arrived is original and original.payload is payload
        assert payload == {"cmd": "on"}
        # stamped by the camera's send: neither the edge's forward nor the
        # envelopes that carried it re-dated it
        assert original.created_at == 1.0
        assert (original.direction, original.inspected_by) == ("to_device", None)

    @pytest.mark.parametrize(
        "cam_mitigation, visits",
        [
            # the camera's chain sees everything: out through its tunnel,
            # then the controller re-tunnels into the plug's
            ("monitor", ["cam", "plug"]),
            # the proxy is blind to the camera's own traffic: the edge
            # punts it, and the controller tunnels it into the plug's
            ("password_proxy", ["plug"]),
        ],
    )
    def test_a_resent_packet_meets_the_destinations_mbox_again(self, cam_mitigation, visits):
        dep, received = self.site(cam_mitigation)
        at_cluster = self.watch_cluster(dep)
        original = protocol.command("cam", "plug", "on")
        for until in (2.0, 3.0):
            dep.devices["cam"].send(original)
            dep.run(until=until)
        assert [target for target, inner in at_cluster if inner is original] == visits * 2
        assert received["plug"] == [original, original]


class TestLifecycleRaces:
    """What the boot queue and the boot timer do when a µmbox goes away
    before it is ready."""

    @staticmethod
    def booting_site(default_verdict):
        dep = SecuredDeployment.build()
        dep.add_device(smart_camera, "cam")
        dep.finalize()
        dep.cluster.default_verdict = default_verdict
        dep.manager._pool = 0
        dep.manager.boot_latency = 1.0
        dep.secure("cam", build_recommended_posture("monitor", "cam", sku=dep.devices["cam"].sku))
        dep.run(until=0.5)  # rules installed, µmbox still booting
        dep.hub.send(protocol.command("hub", "cam", "on"))
        dep.run(until=0.6)
        return dep

    @pytest.mark.parametrize("default_verdict", [Verdict.DROP, Verdict.PASS])
    def test_teardown_sends_the_boot_queue_down_the_unbound_path(self, default_verdict):
        dep = self.booting_site(default_verdict)
        (queued,) = dep.cluster._boot_queues["cam"]
        command = queued[0].payload["inner"]
        dep.manager.teardown("cam")
        assert dep.cluster._boot_queues == {}
        dep.run(until=0.7)
        unbound = [
            e
            for e in dep.sim.journal.entries(kind="verdict")
            if e.fields["element"] == "(unbound)"
        ]
        if default_verdict is Verdict.DROP:
            assert dep.cluster.unbound_drops == 1
            assert [(e.device, e.fields["pkt"]) for e in unbound] == [("cam", command.pkt_id)]
            assert dep.devices["cam"].rx_count == 0
        else:
            assert dep.cluster.unbound_drops == 0 and unbound == []
            assert dep.cluster.returned == 2  # the command, then the camera's reply
            assert dep.devices["cam"].rx_count == 1

    def test_a_stale_boot_timer_does_not_ready_the_redeployed_mbox(self, sim):
        host = MboxHost("cluster", sim)
        manager = MboxManager(sim, host, boot_latency=1.0, pool_size=0)
        posture = build_recommended_posture("monitor", "dev", sku="sku")
        manager.deploy("dev", posture)
        sim.run(until=0.5)
        manager.teardown("dev")
        record = manager.deploy("dev", posture)
        assert record.ready_at == 1.5
        sim.run(until=1.2)  # past the first instance's boot timer
        assert not host.mboxes["dev"].ready
        sim.run(until=1.6)
        assert host.mboxes["dev"].ready
