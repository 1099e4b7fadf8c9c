"""The attacker host.

An :class:`Attacker` is a :class:`~repro.netsim.node.Node` that matches each
reply to the request that caused it, by flow, so exploits can chain: log
in, harvest the session token, then issue authenticated commands.

Each request that wants a reply gets its own source port (the lowest
ephemeral port no pending request to that peer holds), and
:meth:`~repro.netsim.packet.Packet.reply` swaps ports, so a reply names
its request as ``(reply.src, reply.dport)``.  A request unanswered for
:data:`REPLY_TIMEOUT` simulated seconds expires, so what an attacker keeps
is bounded by its requests in flight, not by how long it has run.
Fire-and-forget sends keep source port 0: their replies, like unmatched
ones, are only counted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.netsim.node import Node
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

ReplyCallback = Callable[[Packet], None]

#: Simulated seconds a request waits for its reply before it is forgotten.
REPLY_TIMEOUT = 10.0
#: The ephemeral range request source ports are drawn from (IANA's).
FIRST_PORT, LAST_PORT = 49152, 65535


class Attacker(Node):
    """A remote adversary with per-target session state."""

    def __init__(self, name: str, sim: "Simulator") -> None:
        super().__init__(name, sim)
        self.sessions: dict[str, str] = {}      # target -> session token
        self.loot: list[dict[str, Any]] = []    # exfiltrated resources
        #: ``(peer, source port) -> (deadline, callback)``, oldest first:
        #: deadlines are ``now + REPLY_TIMEOUT`` at insertion, so insertion
        #: order is deadline order and expiry only ever trims the front.
        self._pending: dict[tuple[str, int], tuple[float, ReplyCallback]] = {}
        self.requests_sent = 0
        self.replies_seen = 0

    def request(self, packet: Packet, on_reply: ReplyCallback) -> None:
        """Send ``packet`` from a source port of its own and call
        ``on_reply`` with the reply to it, if one comes within
        :data:`REPLY_TIMEOUT`."""
        pending = self._pending
        now = self.sim.now
        while pending:
            oldest = next(iter(pending))
            if pending[oldest][0] > now:
                break
            del pending[oldest]
        peer = packet.dst
        port = FIRST_PORT
        while (peer, port) in pending:
            port += 1
        if port > LAST_PORT:
            raise RuntimeError(
                f"{self.name}: every source port to {peer} has a request pending"
            )
        packet.sport = port
        pending[peer, port] = (now + REPLY_TIMEOUT, on_reply)
        self.fire_and_forget(packet)

    def fire_and_forget(self, packet: Packet) -> None:
        self.requests_sent += 1
        self._journal_step(packet)
        self.send(packet)

    def _journal_step(self, packet: Packet) -> None:
        # Ground truth for forensics: what the adversary actually sent,
        # journaled against the *target* device's audit trail.
        self.sim.journal.record(
            "attack-step",
            device=packet.dst,
            attacker=self.name,
            pkt=packet.pkt_id,
            dport=packet.dport,
            proto=packet.payload.get("proto", ""),
        )

    def on_packet(self, packet: Packet, in_port: int) -> None:
        self.replies_seen += 1
        entry = self._pending.pop((packet.src, packet.dport), None)
        if entry is not None and entry[0] > self.sim.now:
            entry[1](packet)

    # ------------------------------------------------------------------
    # Session bookkeeping used by exploits
    # ------------------------------------------------------------------
    def store_session(self, target: str, token: str) -> None:
        self.sessions[target] = token

    def session_for(self, target: str) -> str | None:
        return self.sessions.get(target)

    def record_loot(self, target: str, resource: str, data: Any) -> None:
        self.loot.append({"target": target, "resource": resource, "data": data})
        # The smoking gun: data actually left the device.
        self.sim.journal.record(
            "exfiltration",
            device=target,
            attacker=self.name,
            resource=resource,
        )

    def loot_from(self, target: str) -> list[dict[str, Any]]:
        return [item for item in self.loot if item["target"] == target]
