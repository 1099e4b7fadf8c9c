"""Tests for nodes, hosts, and links."""

import pytest

from repro.netsim.link import Link
from repro.netsim.node import Host, Node
from repro.netsim.packet import Packet


def make_pair(sim, latency=0.01, bandwidth=None):
    a, b = Host("a", sim), Host("b", sim)
    link = Link(sim, a, b, latency=latency, bandwidth=bandwidth)
    return a, b, link


def test_link_delivers_after_latency(sim):
    a, b, __ = make_pair(sim, latency=0.25)
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert len(b.inbox) == 1
    assert sim.now == 0.25


def test_serialization_delay_with_bandwidth(sim):
    a, b, __ = make_pair(sim, latency=0.1, bandwidth=1000.0)
    a.send(Packet(src="a", dst="b", size=500))
    sim.run()
    assert sim.now == pytest.approx(0.1 + 0.5)


def test_bidirectional(sim):
    a, b, __ = make_pair(sim)
    b.send(Packet(src="b", dst="a"))
    sim.run()
    assert len(a.inbox) == 1


def test_counters(sim):
    a, b, __ = make_pair(sim)
    a.send(Packet(src="a", dst="b", size=100))
    sim.run()
    assert a.tx_count == 1 and a.tx_bytes == 100
    assert b.rx_count == 1 and b.rx_bytes == 100


def test_a_link_pushes_the_same_deliver_callable_on_every_hop(sim):
    """``_deliver`` is bound once per link, not once per transmitted packet."""
    a, b, link = make_pair(sim)
    a.send(Packet(src="a", dst="b"))
    b.send(Packet(src="b", dst="a"))
    a.send(Packet(src="a", dst="b"))
    callables = [entry[2] for entry in sim._heap]
    assert len(callables) == 3 and all(fn is callables[0] for fn in callables)
    assert callables[0] == link._deliver
    sim.run()
    assert (len(a.inbox), len(b.inbox)) == (1, 2)


def test_packet_has_no_trace_and_is_undated_until_its_first_send(sim):
    """No per-hop list rides a packet; ``created_at`` is None until a node
    first sends it, which stamps it."""
    assert "trace" not in Packet.__slots__
    with pytest.raises(TypeError):
        Packet(src="a", dst="b", trace=[])  # type: ignore[call-arg]
    a, b, __ = make_pair(sim, latency=0.25)
    packet = Packet(src="a", dst="b")
    sim.run(until=0.5)
    assert packet.created_at is None
    a.send(packet)
    assert packet.created_at == 0.5
    sim.run()
    assert b.inbox == [packet] and packet.created_at == 0.5


def test_failed_link_drops(sim):
    a, b, link = make_pair(sim)
    link.fail()
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert b.inbox == [] and link.dropped == 1


def test_restore_after_failure(sim):
    a, b, link = make_pair(sim)
    link.fail()
    link.restore()
    a.send(Packet(src="a", dst="b"))
    sim.run()
    assert len(b.inbox) == 1


def test_in_flight_packet_dropped_on_failure(sim):
    a, b, link = make_pair(sim, latency=1.0)
    a.send(Packet(src="a", dst="b"))
    sim.schedule(0.5, link.fail)
    sim.run()
    assert b.inbox == []


def test_send_requires_explicit_port_with_multiple_links(sim):
    a, b, __ = make_pair(sim)
    c = Host("c", sim)
    Link(sim, a, c)
    with pytest.raises(ValueError):
        a.send(Packet(src="a", dst="b"))
    assert a.send(Packet(src="a", dst="b"), a.port_to("b"))


def test_send_on_unattached_port_returns_false(sim):
    a = Host("a", sim)
    assert a.send(Packet(src="a", dst="b"), 7) is False


def test_port_to_and_free_port(sim):
    a, b, __ = make_pair(sim)
    assert a.port_to("b") == 0
    assert a.port_to("zzz") is None
    assert a.free_port() == 1


def test_free_port_returns_lowest_hole_after_explicit_attaches(sim):
    hub = Host("hub", sim)
    peers = [Host(f"p{i}", sim) for i in range(6)]
    Link(sim, hub, peers[0], port_a=1)
    Link(sim, hub, peers[1], port_a=3)
    assert hub.free_port() == 0  # asking does not claim the port
    assert hub.free_port() == 0
    Link(sim, hub, peers[2])
    assert hub.ports.keys() == {0, 1, 3}
    assert hub.free_port() == 2
    Link(sim, hub, peers[3], port_a=5)
    Link(sim, hub, peers[4])  # fills the hole at 2
    assert hub.free_port() == 4
    Link(sim, hub, peers[5])
    assert sorted(hub.ports) == [0, 1, 2, 3, 4, 5]
    assert hub.free_port() == 6


def test_duplicate_port_attach_rejected(sim):
    a, b, link = make_pair(sim)
    with pytest.raises(ValueError):
        a.attach(0, link)


def test_other_end_validates_membership(sim):
    a, b, link = make_pair(sim)
    stranger = Node("stranger", sim)
    with pytest.raises(ValueError):
        link.other_end(stranger)


def test_host_responder(sim):
    a, b, __ = make_pair(sim)
    b.responder = lambda pkt: pkt.reply({"status": "ok"})
    a.send(Packet(src="a", dst="b", payload={"q": 1}))
    sim.run()
    assert len(a.inbox) == 1
    assert a.inbox[0].payload == {"status": "ok"}


def test_host_received_filter(sim):
    a, b, __ = make_pair(sim)
    a.send(Packet(src="a", dst="b", payload={"cmd": "on"}))
    a.send(Packet(src="a", dst="b", payload={"cmd": "off"}))
    sim.run()
    assert len(b.received(cmd="on")) == 1


def test_link_validation(sim):
    a, b = Host("a", sim), Host("b", sim)
    with pytest.raises(ValueError):
        Link(sim, a, b, latency=-1.0)
    with pytest.raises(ValueError):
        Link(sim, a, b, bandwidth=0.0)
    with pytest.raises(ValueError):  # transmit does not re-check its delay
        Link(sim, a, b, latency=float("nan"))


def test_same_direction_transmissions_serialize(sim):
    a, b, __ = make_pair(sim, latency=0.0, bandwidth=1000.0)
    times = []
    b.responder = None
    orig = b.on_packet
    b.on_packet = lambda pkt, ip: (times.append(sim.now), orig(pkt, ip))
    a.send(Packet(src="a", dst="b", size=500))  # 0.5 s on the wire
    a.send(Packet(src="a", dst="b", size=500))  # queues behind the first
    sim.run()
    assert times == [pytest.approx(0.5), pytest.approx(1.0)]


def test_opposite_directions_do_not_contend(sim):
    a, b, __ = make_pair(sim, latency=0.0, bandwidth=1000.0)
    a.send(Packet(src="a", dst="b", size=500))
    b.send(Packet(src="b", dst="a", size=500))
    sim.run()
    assert sim.now == pytest.approx(0.5)  # both finish together


def test_drop_tail_under_overload(sim):
    a, b, link = make_pair(sim, latency=0.0, bandwidth=1000.0)
    link.max_queue_delay = 1.0
    # each packet takes 0.5 s; the 4th would wait 1.5 s > 1.0 -> dropped
    for __ in range(4):
        a.send(Packet(src="a", dst="b", size=500))
    sim.run()
    assert len(b.inbox) == 3
    assert link.queue_drops == 1


def test_queue_drains_over_time(sim):
    a, b, link = make_pair(sim, latency=0.0, bandwidth=1000.0)
    link.max_queue_delay = 0.4
    a.send(Packet(src="a", dst="b", size=500))
    sim.schedule(0.6, lambda: a.send(Packet(src="a", dst="b", size=500)))
    sim.run()
    assert len(b.inbox) == 2  # the wire was free again by 0.6 s
    assert link.queue_drops == 0


def test_transmit_pushes_its_own_entry_with_schedules_ordering(sim):
    """``transmit`` builds the heap entry itself.  It must take its place
    among ``schedule``d events by the same rule: time, then order of the
    call.  And a packet that is dropped (tail or down link) queues nothing."""
    a, b, link = make_pair(sim, latency=0.0, bandwidth=1000.0)
    link.max_queue_delay = 0.6
    order = []
    a.on_packet = b.on_packet = lambda pkt, port: order.append((sim.now, pkt.payload["n"]))

    def packet(n, src="a", dst="b"):
        return Packet(src=src, dst=dst, size=500, payload={"n": n})  # 0.5 s on the wire

    sim.schedule(0.5, order.append, (0.5, "before"))
    a.send(packet(1))
    sim.schedule(0.5, order.append, (0.5, "after"))
    b.send(packet("back", "b", "a"))  # the other direction: its own horizon
    a.send(packet(2))  # queues 0.5 s behind 1
    assert sim.events_pending() == 5
    a.send(packet(3))  # would wait 1.0 s > 0.6 s: drop-tailed
    assert (link.queue_drops, link.dropped, sim.events_pending()) == (1, 1, 5)
    link.fail()
    a.send(packet(4))
    assert (link.dropped, sim.events_pending()) == (2, 5)
    link.restore()
    sim.run()
    assert order == [(0.5, "before"), (0.5, 1), (0.5, "after"), (0.5, "back"), (1.0, 2)]
    assert (link.delivered, sim.events_processed) == (3, 5)


def test_unlimited_links_never_queue(sim):
    a, b, link = make_pair(sim, latency=0.01, bandwidth=None)
    for __ in range(100):
        a.send(Packet(src="a", dst="b", size=10_000))
    sim.run()
    assert len(b.inbox) == 100
    assert sim.now == pytest.approx(0.01)


def test_created_at_stamped_on_first_send_only_even_at_time_zero(sim):
    """A packet first sent at t = 0.0 keeps that stamp over later hops
    (``if not packet.created_at`` used to re-stamp it at every relay)."""
    a, relay, b = Host("a", sim), Host("relay", sim), Host("b", sim)
    Link(sim, a, relay, latency=0.003)
    out = Link(sim, relay, b, latency=0.003)
    relay.responder = lambda packet: relay.send(packet, out.port_a) and None
    a.send(Packet(src="a", dst="b"))
    sim.run()
    (arrived,) = b.inbox
    assert sim.now == pytest.approx(0.006)
    assert (a.tx_count, relay.rx_count, relay.tx_count, b.rx_count) == (1, 1, 1, 1)
    assert arrived.created_at == 0.0


def test_created_at_of_a_copy_keeps_the_origins_stamp(sim):
    a, b, __ = make_pair(sim, latency=0.25)
    sim.run(until=1.0)
    a.send(Packet(src="a", dst="b"))
    sim.run()
    (arrived,) = b.inbox
    clone = arrived.copy()
    b.send(clone)
    sim.run()
    assert arrived.created_at == clone.created_at == 1.0
