"""The stateful-firewall µmbox element.

Default-deny toward the device with three admission paths:

1. the source is explicitly trusted (the hub, the owner's phone, the
   controller);
2. the packet is a reply to a connection the *device* initiated (classic
   stateful semantics, via :class:`ConnectionTracker`);
3. the port is explicitly opened (e.g. the management port when a
   password proxy guards it further down the pipeline).

This single element neutralizes the whole "exposed access"/"backdoor"
family of Table 1: the backdoor port is simply never in ``open_ports``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet


@dataclass
class ConnectionTracker:
    """Minimal stateful-firewall state: allow replies to outbound flows.

    "a stateful firewall allows incoming traffic if an outgoing connection
    was established earlier" (section 3.1).
    """

    established: set[tuple[str, str, str, int, int]] = field(default_factory=set)

    def note_outbound(self, packet: Packet) -> None:
        # The packet's 5-tuple, taken directly off the header fields --
        # same key as flow_key(packet), no Flow object in the fast path.
        self.established.add(
            (packet.src, packet.dst, packet.protocol, packet.sport, packet.dport)
        )

    def is_reply(self, packet: Packet) -> bool:
        # Reversed 5-tuple: a reply to (src, dst, sport, dport) travels
        # (dst, src, dport, sport).
        return (
            packet.dst,
            packet.src,
            packet.protocol,
            packet.dport,
            packet.sport,
        ) in self.established

    def __len__(self) -> int:
        return len(self.established)


class StatefulFirewall(Element):
    """Default-deny inbound with connection tracking."""

    name = "stateful_firewall"

    def __init__(
        self,
        trusted_sources: Iterable[str] = (),
        open_ports: Iterable[int] = (),
        default: str = "drop",
    ) -> None:
        if default not in ("drop", "pass"):
            raise ValueError(f"default must be drop or pass, got {default!r}")
        self.trusted_sources = frozenset(trusted_sources)
        self.open_ports = frozenset(open_ports)
        self.default = default
        self.tracker = ConnectionTracker()
        self.blocked = 0
        # Outbound traffic is never judged, only remembered, and a
        # conntrack entry toward a trusted peer is never read: ``process``
        # admits that peer's packets before it consults ``is_reply``.
        self.blind_peers = self.trusted_sources

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        direction = packet.direction
        if direction == "from_device":
            # Outbound traffic establishes state for replies.
            self.tracker.note_outbound(packet)
            return PASS, packet
        if packet.src in self.trusted_sources:
            return PASS, packet
        if packet.dport in self.open_ports:
            return PASS, packet
        if self.tracker.is_reply(packet):
            return PASS, packet
        if self.default == "pass":
            return PASS, packet
        self.blocked += 1
        ctx.alert("firewall-blocked", src=packet.src, dport=packet.dport)
        return DROP, packet

    def describe(self) -> str:
        return (
            f"stateful_firewall(trusted={sorted(self.trusted_sources)}, "
            f"open={sorted(self.open_ports)}, default={self.default})"
        )
