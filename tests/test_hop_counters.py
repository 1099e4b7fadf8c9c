"""The links' per-end counters count exactly what crossed them.

Each node's ``rx_count``/``rx_bytes``/``tx_count``/``tx_bytes`` and each
``Link.delivered`` are sums over counters the links keep per end.  The
property test drives small switched topologies -- some links
bandwidth-limited (so drop-tail fires), links failed and restored while
packets are in flight, hosts that reply -- and compares those sums with a
reference it tallies itself by wrapping ``Link.transmit`` and every
node's ``on_packet``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.sdn.flowrule import Action, FlowMatch, FlowRule

#: 200-byte packets on a 2,000 B/s link take 0.1 s each: six queued
#: packets pass the default 0.5 s drop-tail bound.
NARROW = 2000.0

_links = st.lists(
    st.tuples(st.sampled_from([0.001, 0.004, 0.02]), st.sampled_from([None, NARROW])),
    min_size=2,
    max_size=4,
)
_ticks = st.integers(0, 40)  # times on a 0.01 s grid
_operation = st.one_of(
    st.tuples(
        st.just("send"), _ticks, st.integers(0, 3), st.integers(0, 3),
        st.sampled_from([64, 200, 900]), st.booleans(),
    ),
    st.tuples(st.just("fail"), _ticks, st.integers(0, 3)),
    st.tuples(st.just("restore"), _ticks, st.integers(0, 3)),
)


def _ask(packet: Packet):
    """A host's responder: answer a packet that asks for a reply."""
    return packet.reply({"ask": False}, size=packet.size) if packet.payload.get("ask") else None


@settings(max_examples=80, deadline=None)
@given(links=_links, operations=st.lists(_operation, max_size=30))
def test_node_and_link_counts_match_a_reference_tally(links, operations):
    topo = Topology(Simulator())
    sim = topo.sim
    switch = topo.add_switch("sw")
    switch.install(FlowRule(FlowMatch(), (Action.normal(),), priority=0))
    hosts: list[Host] = []
    wires: list[Link] = []
    for i, (latency, bandwidth) in enumerate(links):
        host = topo.add_host(f"h{i}")
        host.responder = _ask
        hosts.append(host)
        wires.append(topo.connect(switch, host, latency=latency, bandwidth=bandwidth))

    rx: Counter = Counter()
    tx: Counter = Counter()
    delivered: Counter = Counter()
    stamps: dict[int, float] = {}
    for node in [switch, *hosts]:
        def tallied(packet, in_port, node=node, handler=node.on_packet):
            rx[node.name, "packets"] += 1
            rx[node.name, "bytes"] += packet.size
            delivered[id(node.ports[in_port])] += 1
            handler(packet, in_port)

        node.on_packet = tallied

    transmit = Link.transmit

    def tallied_transmit(link, sender, packet):
        tx[sender.name, "packets"] += 1
        tx[sender.name, "bytes"] += packet.size
        if packet.pkt_id in stamps:
            assert packet.created_at == stamps[packet.pkt_id]
        else:
            assert packet.created_at is None
        transmit(link, sender, packet)
        stamps.setdefault(packet.pkt_id, sim.now)
        assert packet.created_at == stamps[packet.pkt_id]

    for op in operations:
        kind, tick = op[0], op[1] * 0.01
        if kind == "send":
            __, __, src, dst, size, ask = op
            sender = hosts[src % len(hosts)]
            packet = Packet(sender.name, f"h{dst % len(hosts)}", size=size, payload={"ask": ask})
            sim.schedule(tick, sender.send, packet)
        else:
            wire = wires[op[2] % len(wires)]
            sim.schedule(tick, wire.fail if kind == "fail" else wire.restore)

    Link.transmit = tallied_transmit
    try:
        sim.run()
    finally:
        Link.transmit = transmit

    for node in [switch, *hosts]:
        name = node.name
        assert (node.rx_count, node.rx_bytes, node.tx_count, node.tx_bytes) == (
            rx[name, "packets"],
            rx[name, "bytes"],
            tx[name, "packets"],
            tx[name, "bytes"],
        )
    for wire in wires:
        assert wire.delivered == delivered[id(wire)]
    assert sum(wire.delivered for wire in wires) == sum(
        node.rx_count for node in [switch, *hosts]
    )


def test_a_node_cannot_be_linked_to_itself(sim):
    node = Host("loop", sim)
    with pytest.raises(ValueError, match="itself"):
        Link(sim, node, node)
    assert node.ports == {}


def test_counts_are_per_end(sim):
    a, b = Host("a", sim), Host("b", sim)
    link = Link(sim, a, b)
    a.send(Packet("a", "b", size=100))
    b.send(Packet("b", "a", size=30))
    b.send(Packet("b", "a", size=30))
    sim.run()
    assert link.counts(a) == (2, 60, 1, 100)
    assert link.counts(b) == (1, 100, 2, 60)
    assert link.delivered == 3
    with pytest.raises(ValueError):
        link.counts(Host("c", sim))
