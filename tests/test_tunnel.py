"""Tests for tunneling."""

import pytest

from repro.netsim.packet import Packet
from repro.sdn.tunnel import (
    TUNNEL_OVERHEAD_BYTES,
    TUNNEL_PROTOCOL,
    TunnelTable,
    detunnel,
    tunnel_packet,
)


def test_roundtrip():
    inner = Packet(src="a", dst="cam", payload={"cmd": "on"}, size=100)
    outer = tunnel_packet(inner, ingress="edge", target="cam")
    assert outer.protocol == TUNNEL_PROTOCOL
    assert outer.size == 100 + TUNNEL_OVERHEAD_BYTES
    unwrapped, ingress = detunnel(outer)
    assert unwrapped is inner
    assert ingress == "edge"


def test_detunnel_rejects_plain_packet():
    with pytest.raises(ValueError):
        detunnel(Packet(src="a", dst="b"))


def test_tunnel_table():
    table = TunnelTable()
    table.bind("cam", "mbox-1")
    table.bind("plug", "mbox-2")
    table.bind("bulb", "mbox-1")
    assert table.mbox_for("cam") == "mbox-1"
    assert table.mbox_for("ghost") is None
    assert sorted(table.devices_of("mbox-1")) == ["bulb", "cam"]
    assert len(table) == 3
    assert "cam" in table
    table.unbind("cam")
    assert "cam" not in table
    table.unbind("cam")  # idempotent
