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

from typing import Iterable

from repro.mboxes.base import Element, MboxContext, Verdict
from repro.netsim.packet import Packet
from repro.policy.acl import ConnectionTracker


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
            return Verdict.PASS, packet
        if packet.src in self.trusted_sources:
            return Verdict.PASS, packet
        if packet.dport in self.open_ports:
            return Verdict.PASS, packet
        if self.tracker.is_reply(packet):
            return Verdict.PASS, packet
        if self.default == "pass":
            return Verdict.PASS, packet
        self.blocked += 1
        ctx.alert("firewall-blocked", src=packet.src, dport=packet.dport)
        return Verdict.DROP, packet

    def describe(self) -> str:
        return (
            f"stateful_firewall(trusted={sorted(self.trusted_sources)}, "
            f"open={sorted(self.open_ports)}, default={self.default})"
        )
