"""Network nodes.

A :class:`Node` owns a set of numbered ports, each optionally attached to a
:class:`~repro.netsim.link.Link`.  Subclasses (IoT devices, switches,
µmboxes, attacker hosts) override :meth:`on_packet`.

The links count every hop; a node's ``rx_count``/``tx_count``/``rx_bytes``/
``tx_bytes`` are read-only sums over its links.  :meth:`Node.send`
resolves a port and hands the packet to its link; a forwarder on the hot
path that resolved the port itself (a next hop, a tunnel binding, the port
a packet came in on) calls ``self.ports[port].transmit(self, packet)``
directly, so no per-hop attribute site sees more than one node type.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.link import Link
    from repro.netsim.simulator import Simulator


class Node:
    """Base class for anything attached to the simulated network.

    Slotted: the port map is the hottest attribute in the forwarding path.
    Subclasses may still declare ad-hoc attributes (they get a
    ``__dict__`` unless they opt into ``__slots__`` themselves).
    """

    __slots__ = ("name", "sim", "ports", "_port_hint")

    def __init__(self, name: str, sim: "Simulator") -> None:
        self.name = name
        self.sim = sim
        self.ports: dict[int, "Link"] = {}
        #: Low-water mark for :meth:`free_port`: every port below it is
        #: attached (ports are never detached, so it only moves up).
        self._port_hint = 0

    # ------------------------------------------------------------------
    # Hop counts: what this node's links counted at its end
    # ------------------------------------------------------------------
    @property
    def rx_count(self) -> int:
        return sum(link.counts(self)[0] for link in self.ports.values())

    @property
    def rx_bytes(self) -> int:
        return sum(link.counts(self)[1] for link in self.ports.values())

    @property
    def tx_count(self) -> int:
        return sum(link.counts(self)[2] for link in self.ports.values())

    @property
    def tx_bytes(self) -> int:
        return sum(link.counts(self)[3] for link in self.ports.values())

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, port: int, link: "Link") -> None:
        """Attach ``link`` to ``port``.  A port holds at most one link."""
        if port in self.ports:
            raise ValueError(f"{self.name}: port {port} already attached")
        self.ports[port] = link

    def free_port(self) -> int:
        """The lowest unattached port number."""
        port = self._port_hint
        while port in self.ports:
            port += 1
        self._port_hint = port
        return port

    def port_to(self, neighbor: str) -> Optional[int]:
        """The port whose link leads to ``neighbor``, if any."""
        for port, link in self.ports.items():
            if link.other_end(self).name == neighbor:
                return port
        return None

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def send(self, packet: Packet, port: int | None = None) -> bool:
        """Transmit ``packet`` out of ``port`` (default: the only port).

        Returns False when the node has no usable port, which models an
        unplugged device rather than raising: callers in traffic generators
        should tolerate partial topologies.
        """
        ports = self.ports
        link = ports.get(port)  # the explicit port first: the forwarding case
        if link is None:
            if port is not None or not ports:
                return False  # no such port, or an unplugged node
            if len(ports) > 1:
                raise ValueError(
                    f"{self.name}: port must be given explicitly "
                    f"({len(ports)} ports attached)"
                )
            link = next(iter(ports.values()))
        link.transmit(self, packet)
        return True

    def on_packet(self, packet: Packet, in_port: int) -> None:
        """Handle a delivered packet.  Default: drop silently (a sink).

        The delivering :class:`~repro.netsim.link.Link` has already counted
        the arrival.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Host(Node):
    """A general-purpose endpoint that records everything it receives.

    Used for attacker machines, cloud endpoints, and test probes.  An
    optional ``responder`` callable lets tests script replies.
    """

    def __init__(self, name: str, sim: "Simulator") -> None:
        super().__init__(name, sim)
        self.inbox: list[Packet] = []
        self.responder = None  # type: ignore[assignment]

    def on_packet(self, packet: Packet, in_port: int) -> None:
        self.inbox.append(packet)
        if self.responder is not None:
            reply = self.responder(packet)
            if reply is not None:
                self.send(reply, in_port)

    def received(self, **payload_filter: object) -> list[Packet]:
        """Packets whose payload contains all the given key/value pairs."""
        return [
            pkt
            for pkt in self.inbox
            if all(pkt.payload.get(k) == v for k, v in payload_filter.items())
        ]
