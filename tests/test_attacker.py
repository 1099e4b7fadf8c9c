"""Tests for the attacker host's correlation machinery."""

import pytest

from repro.attacks.attacker import FIRST_PORT, LAST_PORT, REPLY_TIMEOUT, Attacker
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet


def wire(sim):
    attacker = Attacker("attacker", sim)
    target = Host("target", sim)
    Link(sim, attacker, target, latency=0.001)
    return attacker, target


def test_request_reply_correlation(sim):
    attacker, target = wire(sim)
    target.responder = lambda pkt: pkt.reply({"status": "ok", "n": pkt.payload["n"]})
    got = []
    attacker.request(Packet(src="attacker", dst="target", payload={"n": 1}), got.append)
    attacker.request(Packet(src="attacker", dst="target", payload={"n": 2}), got.append)
    sim.run()
    assert [p.payload["n"] for p in got] == [1, 2]  # each reply to its own request
    assert [p.dport for p in got] == [FIRST_PORT, FIRST_PORT + 1]
    assert attacker._pending == {}
    assert attacker.requests_sent == 2
    assert attacker.replies_seen == 2


def test_fire_and_forget_no_callback(sim):
    attacker, target = wire(sim)
    target.responder = lambda pkt: pkt.reply({"status": "ok"})
    attacker.fire_and_forget(Packet(src="attacker", dst="target"))
    sim.run()
    # reply arrives but no callback was registered: only counted
    assert attacker.replies_seen == 1


def test_fire_and_forget_reply_leaves_pending_callback(sim):
    attacker, target = wire(sim)
    # The target answers only what asks for an answer: the request below
    # is dropped, the fire-and-forget is replied to.
    target.responder = lambda pkt: pkt.reply({"status": "ok"}) if pkt.payload else None
    got = []
    attacker.request(Packet(src="attacker", dst="target"), got.append)
    attacker.fire_and_forget(Packet(src="attacker", dst="target", payload={"n": 1}))
    sim.run()
    assert got == [] and attacker.replies_seen == 1
    assert list(attacker._pending) == [("target", FIRST_PORT)]


def test_unanswered_request_expires(sim):
    attacker, target = wire(sim)  # the bare target answers nothing
    attacker.request(Packet(src="attacker", dst="target"), [].append)
    sim.run(until=REPLY_TIMEOUT + 1.0)
    attacker.request(Packet(src="attacker", dst="target"), [].append)
    # The expired request is gone, so the new one has its port.
    assert list(attacker._pending) == [("target", FIRST_PORT)]


def test_late_reply_is_only_counted(sim):
    attacker = Attacker("attacker", sim)
    target = Host("target", sim)
    Link(sim, attacker, target, latency=REPLY_TIMEOUT)
    target.responder = lambda pkt: pkt.reply({"status": "ok"})
    got = []
    attacker.request(Packet(src="attacker", dst="target"), got.append)
    sim.run()
    assert got == [] and attacker.replies_seen == 1
    assert attacker._pending == {}


def test_source_ports_run_out_per_peer(sim):
    attacker, __ = wire(sim)
    held = (float("inf"), [].append)
    attacker._pending = {("target", port): held for port in range(FIRST_PORT, LAST_PORT + 1)}
    attacker.request(Packet(src="attacker", dst="other"), [].append)  # another peer: fine
    with pytest.raises(RuntimeError, match="every source port to target"):
        attacker.request(Packet(src="attacker", dst="target"), [].append)


def test_unsolicited_packet_does_not_pop_callbacks(sim):
    attacker, target = wire(sim)
    got = []
    attacker.request(Packet(src="attacker", dst="target"), got.append)
    other = Host("other", sim)
    Link(sim, attacker, other, latency=0.001)
    other.send(Packet(src="other", dst="attacker"))
    sim.run()
    assert got == []  # the pending target-callback is still waiting


def test_session_and_loot_bookkeeping(sim):
    attacker = Attacker("attacker", sim)
    attacker.store_session("cam", "tok-1")
    assert attacker.session_for("cam") == "tok-1"
    assert attacker.session_for("other") is None
    attacker.record_loot("cam", "image", {"pixels": "..."})
    attacker.record_loot("plug", "data", {})
    assert len(attacker.loot_from("cam")) == 1
    assert len(attacker.loot) == 2
