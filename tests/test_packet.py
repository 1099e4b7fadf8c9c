"""Tests for packets and flows."""

from repro.netsim.packet import Flow, Packet


def test_flow_from_packet():
    pkt = Packet(src="a", dst="b", protocol="http", sport=1234, dport=80)
    assert pkt.flow == Flow("a", "b", "http", 1234, 80)


def test_flow_reversed():
    flow = Flow("a", "b", "tcp", 10, 20)
    assert flow.reversed() == Flow("b", "a", "tcp", 20, 10)
    assert flow.reversed().reversed() == flow


def test_packet_ids_unique():
    a, b = Packet(src="x", dst="y"), Packet(src="x", dst="y")
    assert a.pkt_id != b.pkt_id


def test_copy_is_independent():
    pkt = Packet(src="a", dst="b", payload={"cmd": "on"})
    clone = pkt.copy()
    clone.payload["cmd"] = "off"
    clone.created_at = 2.0
    clone.direction, clone.inspected_by = "to_device", "b"
    assert pkt.payload == {"cmd": "on"}
    assert (pkt.created_at, pkt.direction, pkt.inspected_by) == (None, None, None)
    assert clone.pkt_id != pkt.pkt_id


def test_copy_with_overrides():
    pkt = Packet(src="a", dst="b", size=100)
    clone = pkt.copy(dst="c", size=50)
    assert (clone.src, clone.dst, clone.size) == ("a", "c", 50)
    assert (pkt.dst, pkt.size) == ("b", 100)


def test_reply_reverses_flow():
    pkt = Packet(src="client", dst="cam", protocol="http", sport=5555, dport=80)
    rep = pkt.reply({"status": "ok"})
    assert rep.src == "cam" and rep.dst == "client"
    assert rep.sport == 80 and rep.dport == 5555
    assert rep.protocol == "http"
    assert rep.payload == {"status": "ok"}


def test_reply_payload_copied():
    payload = {"status": "ok"}
    pkt = Packet(src="a", dst="b")
    rep = pkt.reply(payload)
    payload["status"] = "mutated"
    assert rep.payload == {"status": "ok"}
