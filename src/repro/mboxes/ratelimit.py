"""Token-bucket rate limiting.

Brute-force login storms (Fig. 3's window password) and reflection bursts
both announce themselves volumetrically before any signature exists; a
per-source token bucket at the device's gateway caps them.  Buckets are
replenished in simulated time (computed lazily from the last refill stamp,
so no periodic events are needed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet


@dataclass
class _Bucket:
    tokens: float
    last_refill: float


class RateLimiter(Element):
    """Per-source token bucket over device-bound packets.

    ``rate`` tokens/second, ``burst`` bucket depth.  ``match_dport``
    narrows the limiter to one port (e.g. only the management interface),
    leaving other traffic -- telemetry, control from the hub -- unmetered.
    """

    name = "rate_limiter"
    blind_peers = None  # meters device-bound traffic only

    def __init__(
        self,
        rate: float = 1.0,
        burst: float = 5.0,
        match_dport: int | None = None,
        exempt_sources: tuple[str, ...] = (),
    ) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self.match_dport = match_dport
        self.exempt_sources = frozenset(exempt_sources)
        self.buckets: dict[str, _Bucket] = {}
        self.limited = 0

    def _bucket(self, source: str, now: float) -> _Bucket:
        bucket = self.buckets.get(source)
        if bucket is None:
            bucket = _Bucket(tokens=self.burst, last_refill=now)
            self.buckets[source] = bucket
            return bucket
        elapsed = now - bucket.last_refill
        bucket.tokens = min(self.burst, bucket.tokens + elapsed * self.rate)
        bucket.last_refill = now
        return bucket

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        if packet.direction != "to_device":
            return PASS, packet
        if self.match_dport is not None and packet.dport != self.match_dport:
            return PASS, packet
        if packet.src in self.exempt_sources:
            return PASS, packet
        bucket = self._bucket(packet.src, ctx.now)
        if bucket.tokens >= 1.0:
            bucket.tokens -= 1.0
            return PASS, packet
        self.limited += 1
        ctx.alert("rate-limited", src=packet.src, dport=packet.dport)
        return DROP, packet

    def describe(self) -> str:
        port = f", dport={self.match_dport}" if self.match_dport is not None else ""
        return f"rate_limiter({self.rate}/s burst {self.burst}{port})"
