"""DNS-guard µmbox element (Table 1 row 6).

The Belkin Wemo "runs an open DNS resolver which was used to mount a DDoS
attack": any spoofed query bounces an amplified answer at the victim.  The
guard sits on the device path and drops resolver queries unless they come
from the device's own site (the resolver was only ever meant for the
vendor's local software), killing the reflection vector without touching
the firmware.
"""

from __future__ import annotations

from typing import Iterable

from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet

DNS_PORT = 53


class DnsGuard(Element):
    """Drop resolver queries from non-local sources; cap the rest."""

    name = "dns_guard"

    def __init__(
        self,
        local_sources: Iterable[str] = (),
        max_queries_per_second: float = 5.0,
    ) -> None:
        if max_queries_per_second <= 0:
            raise ValueError("max_queries_per_second must be positive")
        self.local_sources = frozenset(local_sources)
        self.max_qps = max_queries_per_second
        self.blocked = 0
        self._window_start = 0.0
        self._window_count = 0

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        if packet.direction != "to_device" or packet.dport != DNS_PORT:
            return PASS, packet
        if packet.src not in self.local_sources:
            self.blocked += 1
            ctx.alert("dns-reflection-blocked", claimed_src=packet.src)
            return DROP, packet
        # Local clients are rate-capped too: a compromised local host must
        # not turn the device into an amplifier either.
        if ctx.now - self._window_start >= 1.0:
            self._window_start = ctx.now
            self._window_count = 0
        self._window_count += 1
        if self._window_count > self.max_qps:
            self.blocked += 1
            ctx.alert("dns-rate-capped", src=packet.src)
            return DROP, packet
        return PASS, packet

    def describe(self) -> str:
        return f"dns_guard(local={sorted(self.local_sources)}, qps={self.max_qps})"
