"""Packets and flows.

A :class:`Packet` carries both conventional header fields (addresses, ports,
protocol) and an application-layer ``payload`` dictionary.  IoT protocols in
this library are message-oriented (e.g. ``{"cmd": "on"}`` to a smart plug or
``{"action": "login", "username": ..., "password": ...}`` to a camera), so a
structured payload keeps device and µmbox logic explicit rather than buried
in byte parsing, while ``size`` preserves the traffic-volume dimension.

Hot-path notes: :class:`Packet` is a hand-written ``__slots__`` class (one
per message and one envelope per inspection), :class:`Flow` objects are
interned through a bounded cache so repeated lookups of the same 5-tuple
share one object, and :func:`flow_key` exposes the raw tuple for code that only needs
a dict/set key (connection trackers) without constructing a Flow at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

_PACKET_IDS = itertools.count(1)


@dataclass(frozen=True, slots=True)
class Flow:
    """A 5-tuple flow identifier."""

    src: str
    dst: str
    protocol: str = "tcp"
    sport: int = 0
    dport: int = 0

    def reversed(self) -> "Flow":
        """The flow for traffic in the opposite direction."""
        return intern_flow(self.dst, self.src, self.protocol, self.dport, self.sport)


#: Interned flows, keyed by 5-tuple.  Bounded: simulated experiments see a
#: small, recurring set of flows, but a pathological workload must not leak.
_FLOW_CACHE: dict[tuple[str, str, str, int, int], Flow] = {}
_FLOW_CACHE_MAX = 65536


def intern_flow(
    src: str, dst: str, protocol: str = "tcp", sport: int = 0, dport: int = 0
) -> Flow:
    """A shared :class:`Flow` for the given 5-tuple (bounded intern cache)."""
    key = (src, dst, protocol, sport, dport)
    flow = _FLOW_CACHE.get(key)
    if flow is None:
        if len(_FLOW_CACHE) >= _FLOW_CACHE_MAX:
            _FLOW_CACHE.clear()
        flow = Flow(src, dst, protocol, sport, dport)
        _FLOW_CACHE[key] = flow
    return flow


def flow_key(packet: "Packet") -> tuple[str, str, str, int, int]:
    """The packet's 5-tuple as a plain tuple (cheap dict/set key)."""
    return (packet.src, packet.dst, packet.protocol, packet.sport, packet.dport)


class Packet:
    """A simulated packet / application message.

    Attributes
    ----------
    src, dst:
        Logical addresses (node names).
    protocol:
        Transport/app protocol label: ``"tcp"``, ``"udp"``, ``"http"``,
        ``"dns"``, ``"iot"`` (vendor control protocols), etc.
    sport, dport:
        Port numbers; IoT management interfaces commonly sit on 80/8080.
    payload:
        Structured application content.  Never mutated in place by the
        forwarding path.  µmbox elements see the sender's own packet, so
        one that rewrites does so on a :meth:`copy`.
    size:
        Bytes on the wire, used for bandwidth/volume accounting.
    created_at:
        Simulated time of the first send, or ``None`` until then.  The
        first :meth:`Link.transmit <repro.netsim.link.Link.transmit>`
        stamps it; a forwarded packet, or a :meth:`copy` of one, keeps its
        origin's stamp (``t = 0.0`` included).  Nothing records the hops a
        packet takes: the links count them, per end.
    direction:
        ``"to_device"`` or ``"from_device"``, written by the µmbox host
        before the chain runs (``None`` before any inspection).
    inspected_by:
        The device whose µmbox returned the packet, set by the switch that
        decapsulates the return for that one lookup: a re-sent packet is
        judged afresh.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "sport",
        "dport",
        "payload",
        "size",
        "created_at",
        "pkt_id",
        "direction",
        "inspected_by",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        protocol: str = "tcp",
        sport: int = 0,
        dport: int = 0,
        payload: dict[str, Any] | None = None,
        size: int = 64,
        created_at: float | None = None,
        pkt_id: int | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.sport = sport
        self.dport = dport
        self.payload = {} if payload is None else payload
        self.size = size
        self.created_at = created_at
        self.pkt_id = next(_PACKET_IDS) if pkt_id is None else pkt_id
        self.direction: str | None = None
        self.inspected_by: str | None = None

    @property
    def flow(self) -> Flow:
        """The packet's 5-tuple flow (interned)."""
        return intern_flow(self.src, self.dst, self.protocol, self.sport, self.dport)

    def copy(self, **overrides: Any) -> "Packet":
        """A deep-enough copy with a fresh packet id and optional overrides.

        ``payload`` is shallow-copied so the clone can be rewritten
        without mutating the original.
        """
        # Field by field: cheaper than ``__init__`` with every field passed.
        clone = Packet.__new__(Packet)
        clone.src = self.src
        clone.dst = self.dst
        clone.protocol = self.protocol
        clone.sport = self.sport
        clone.dport = self.dport
        clone.payload = dict(self.payload)
        clone.size = self.size
        clone.created_at = self.created_at
        clone.pkt_id = next(_PACKET_IDS)
        clone.direction = self.direction
        clone.inspected_by = self.inspected_by
        if overrides:
            for key, value in overrides.items():
                setattr(clone, key, value)
        return clone

    def reply(self, payload: dict[str, Any] | None = None, size: int = 64) -> "Packet":
        """Construct a response packet along the reversed flow."""
        return Packet(
            self.dst, self.src, self.protocol, self.dport, self.sport, dict(payload or {}), size
        )

    def __repr__(self) -> str:
        return (
            f"Packet#{self.pkt_id}({self.src}->{self.dst} {self.protocol}"
            f":{self.dport} {self.payload!r})"
        )
