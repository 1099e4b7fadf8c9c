"""Tunneling device traffic to µmboxes.

Section 2.2: "Each IoT device's first-hop edge router or wireless access
point (AP) is configured to tunnel packets to/from the device to the cluster
or an IoT router."  We model encapsulation by wrapping the original packet
in a new one addressed to the µmbox host; the inner packet rides in
``payload["inner"]``, by reference.  One envelope makes the round trip: the
host turns it around to the ingress switch (``payload["inspected"]`` set,
``payload["inner"]`` the chain's result), which decapsulates it once.
"""

from __future__ import annotations

from repro.netsim.packet import Packet

TUNNEL_PROTOCOL = "iotsec-tunnel"
TUNNEL_OVERHEAD_BYTES = 20


def tunnel_packet(
    packet: Packet, ingress: str, target: str, via: str | None = None
) -> Packet:
    """Encapsulate ``packet`` toward the µmbox named ``target``.

    ``ingress`` records which switch encapsulated it, so the µmbox host can
    return the (possibly rewritten) packet to the right place.  ``via``,
    when given, addresses the envelope to the µmbox host instead, so that
    intermediate switches can route it there.
    """
    return Packet(
        ingress,
        target if via is None else via,
        TUNNEL_PROTOCOL,
        0,
        0,
        {"inner": packet, "ingress": ingress, "target": target},
        packet.size + TUNNEL_OVERHEAD_BYTES,
    )


def detunnel(packet: Packet) -> tuple[Packet, str]:
    """Unwrap a tunnelled packet; returns ``(inner, ingress_switch)``."""
    if packet.protocol != TUNNEL_PROTOCOL:
        raise ValueError(f"not a tunnel packet: {packet!r}")
    return packet.payload["inner"], packet.payload["ingress"]


class TunnelTable:
    """Controller-side record of which device's traffic goes to which µmbox.

    Maps device name -> µmbox name; the orchestrator compiles this into
    tunnel flow rules at the device's edge switch.
    """

    def __init__(self) -> None:
        self._by_device: dict[str, str] = {}

    def bind(self, device: str, mbox: str) -> None:
        self._by_device[device] = mbox

    def unbind(self, device: str) -> None:
        self._by_device.pop(device, None)

    def mbox_for(self, device: str) -> str | None:
        return self._by_device.get(device)

    def devices_of(self, mbox: str) -> list[str]:
        return [d for d, m in self._by_device.items() if m == mbox]

    def __len__(self) -> int:
        return len(self._by_device)

    def __contains__(self, device: str) -> bool:
        return device in self._by_device
