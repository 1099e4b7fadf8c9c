"""Forwarding on rules: what a switch does with a packet its table hands
back to the fabric -- an inspected return, a blind flow, a table miss.

The orchestrator's 900/890 rows (a µmbox's return) and 700 rows (a pinned
chain's blind flows) end in the same forwarding decision: re-tunnel toward
a secured destination whose µmbox has not seen the packet yet, else take
the next hop toward the destination.  These tests pin where each kind of
packet ends up, on the one-switch home and on the enterprise shape.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import OFFLOAD_PRIORITY, build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.netsim.packet import Packet
from repro.netsim.topology import Topology
from repro.policy.posture import block_commands
from repro.sdn.flowrule import Action, FlowMatch, FlowRule


def watch_cluster(dep: SecuredDeployment) -> list[tuple[str, Packet]]:
    """``(target µmbox, inner packet)`` of every envelope the cluster takes in."""
    seen: list[tuple[str, Packet]] = []
    handle = dep.cluster.on_packet
    dep.cluster.on_packet = (  # type: ignore[method-assign]
        lambda packet, in_port: (
            seen.append((packet.payload["target"], packet.payload["inner"])),
            handle(packet, in_port),
        )
    )
    return seen


def test_device_to_device_meets_the_sources_mbox_then_the_destinations():
    dep = SecuredDeployment.build()
    cam = dep.add_device(smart_camera, "cam")
    plug = dep.add_device(smart_plug, "plug")
    dep.finalize()
    # The camera's ``src=cam`` tunnel row (510) outranks the plug's
    # ``dst=plug`` one (500), whichever was secured first.  Its monitor
    # chain is blind to nothing, so no 700 row takes the command first.
    dep.secure("cam", build_recommended_posture("monitor", "cam", sku=cam.sku))
    dep.secure("plug", block_commands("off"))
    dep.run(until=1.0)
    command = protocol.command("cam", "plug", "on")
    winner = dep.edge.lookup(command, dep.edge.port_to("cam"))
    assert (winner.priority, winner.match.src, winner.owner) == (510, "cam", "cam")
    seen = watch_cluster(dep)
    cam.send(command)
    dep.run(until=2.0)
    # Two envelopes: the camera's tunnel, then one re-tunnel of the
    # camera's return into the plug's µmbox; the plug's return goes home.
    assert [target for target, inner in seen if inner is command] == ["cam", "plug"]
    assert plug.state == "on"


@pytest.mark.parametrize("first", ["cam", "plug"])
def test_each_direction_meets_its_sources_mbox_first_in_either_securing_order(first):
    dep = SecuredDeployment.build()
    devices = {
        "cam": dep.add_device(smart_camera, "cam"),
        "plug": dep.add_device(smart_plug, "plug"),
    }
    dep.finalize()
    # Monitor chains are blind to nothing: no 700 row takes either packet
    # first, so only the tunnel rows decide whose µmbox sees what.
    for name in (first, *(n for n in devices if n != first)):
        dep.secure(name, build_recommended_posture("monitor", name, sku=devices[name].sku))
    dep.run(until=1.0)
    seen = watch_cluster(dep)
    devices["cam"].send(protocol.command("cam", "plug", "on"))
    dep.run(until=2.0)
    by_direction = {
        (src, dst): [target for target, inner in seen if (inner.src, inner.dst) == (src, dst)]
        for src, dst in (("cam", "plug"), ("plug", "cam"))
    }
    assert by_direction == {("cam", "plug"): ["cam", "plug"], ("plug", "cam"): ["plug", "cam"]}
    assert devices["plug"].state == "on"


def test_room_switch_offloads_a_blind_flow_and_tunnels_the_rest_across_the_core():
    dep = SecuredDeployment.build()
    room = dep.add_room("room1")
    cam = dep.add_device(smart_camera, "cam1", room="room1")
    attacker = dep.add_attacker()
    dep.finalize()
    # The credential gateway is blind to the camera's own traffic: the
    # room switch offloads it on the camera's port.
    dep.secure("cam1", build_recommended_posture("password_proxy", "cam1"))
    dep.run(until=1.0)
    (offload,) = [rule for rule in room.rules_for("cam1") if rule.priority == OFFLOAD_PRIORITY]
    seen = watch_cluster(dep)
    report = protocol.telemetry("cam1", "hub", "idle", {})
    cam.send(report)
    dep.run(until=2.0)
    assert offload.hits == 1 and seen == []
    assert dep.hub.rx_count >= 1
    # A login with the gateway's password crosses the core into the room,
    # tunnels back through the core to the cluster, and reaches the camera
    # rewritten; the camera's reply is its own traffic, offloaded again.
    replies: list[Packet] = []
    login = protocol.login("attacker", "cam1", "admin", "S3cure!gateway")
    attacker.request(login, replies.append)
    dep.run(until=4.0)
    assert [target for target, inner in seen] == ["cam1"]
    assert len(cam.login_log) == 1 and offload.hits == 2
    assert len(replies) == 1 and protocol.is_ok(replies[0])


def test_a_table_miss_is_forwarded_while_the_controller_lives():
    dep = SecuredDeployment.build()
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    dep.enforce_baseline()
    dep.run(until=1.0)
    # Neither end is a secured device: no rule names the flow.
    probe = Packet("attacker", "hub", dport=8080)
    assert dep.edge.lookup(probe, dep.edge.port_to("attacker")) is None
    at_hub, misses, punted = dep.hub.rx_count, dep.edge.miss_drops, dep.edge.punted
    attacker.send(probe)
    dep.run(until=2.0)
    assert dep.hub.rx_count == at_hub + 1
    assert (dep.edge.punted, dep.edge.miss_drops) == (punted + 1, misses)
    # A dead controller serves no miss: the next one is dropped at the edge.
    dep.crash_controller()
    attacker.send(Packet("attacker", "hub", dport=8080))
    dep.run(until=3.0)
    assert dep.hub.rx_count == at_hub + 1
    assert dep.edge.miss_drops == misses + 1


def test_a_switchs_next_hops_follow_link_flips_and_added_nodes():
    """``normal`` reads next hops from the switch's cache; the topology drops
    it with its own routes, so a flipped link or a node added after traffic
    has flowed reroutes the next packet."""
    topo = Topology()
    for name in ("a", "b"):
        topo.add_host(name)
    edge, fast, slow = (topo.add_switch(name) for name in ("edge", "fast", "slow"))
    topo.connect("a", edge, latency=0.001)
    shortcut = topo.connect(edge, fast, latency=0.001)
    topo.connect(fast, "b", latency=0.001)
    topo.connect(edge, slow, latency=0.01)
    topo.connect(slow, "b", latency=0.01)
    for switch in (edge, fast, slow):
        switch.install(FlowRule(FlowMatch(), (Action.normal(),), priority=0))

    def deliver(dst: str) -> None:
        topo["a"].send(Packet("a", dst))
        topo.run()

    deliver("b")
    assert (fast.rx_count, slow.rx_count, topo["b"].rx_count) == (1, 0, 1)
    shortcut.fail()
    deliver("b")
    assert (fast.rx_count, slow.rx_count, topo["b"].rx_count) == (1, 1, 2)
    shortcut.restore()
    late = topo.add_host("late")
    topo.connect(fast, late, latency=0.001)
    deliver("late")
    assert (fast.rx_count, late.rx_count) == (2, 1)


LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"


def home_steady_window(crash: bool) -> tuple[int, int]:
    """Link deliveries and edge ``miss_drops`` over t = 100-120 s of the
    ledger's ``home-steady`` world (seed 1), the controller crashed at
    t = 100 s or left alone."""
    if str(LEDGER) not in sys.path:
        sys.path.append(str(LEDGER))
    import workloads

    spec = workloads.WORKLOADS["home-steady"]
    world = workloads.World(spec, workloads.generate_inputs(spec, 1), horizon=60.0)
    dep = world.dep
    dep.run(until=100.0)
    links = list(dep.edge.ports.values())
    delivered, dropped = sum(link.delivered for link in links), dep.edge.miss_drops
    if crash:
        dep.crash_controller()
    dep.run(until=120.0)
    return sum(link.delivered for link in links) - delivered, dep.edge.miss_drops - dropped


def test_invariant_10vii_a_controller_crash_drops_no_rule_carried_traffic():
    """Invariant 10(vii) of ROADMAP.md, its first checker: a controller
    crash never drops conforming traffic that installed rules carry.  Every
    packet of this window is a pinned device's report, returned by its
    µmbox or offloaded as a blind flow; none is a table miss."""
    assert home_steady_window(crash=True) == home_steady_window(crash=False) == (2500, 0)
