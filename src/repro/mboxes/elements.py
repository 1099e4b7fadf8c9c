"""Generic µmbox pipeline elements.

The small reusable stages: command filtering (the Fig. 3 "Block 'open'"
posture), command whitelisting (Table 1 row 5's traffic lights), context
gates (the Fig. 5 occupancy condition), logging, and telemetry tapping.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet


class CommandFilter(Element):
    """Drop control packets whose command is on the deny list."""

    name = "command_filter"
    blind_peers = None  # judges device-bound traffic only

    def __init__(self, deny: Iterable[str]) -> None:
        self.deny = frozenset(deny)

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        cmd = packet.payload.get("cmd")
        if (
            packet.direction == "to_device"
            and cmd is not None
            and cmd in self.deny
        ):
            ctx.alert("command-blocked", cmd=cmd, src=packet.src)
            return DROP, packet
        return PASS, packet

    def describe(self) -> str:
        return f"command_filter(deny={sorted(self.deny)})"


class CommandWhitelist(Element):
    """Drop control packets whose command is NOT on the allow list.

    Non-command traffic passes (telemetry, replies); the whitelist guards
    the actuator surface only.
    """

    name = "command_whitelist"
    blind_peers = None  # judges device-bound traffic only

    def __init__(self, allow: Iterable[str], allowed_sources: Iterable[str] = ()) -> None:
        self.allow = frozenset(allow)
        self.allowed_sources = frozenset(allowed_sources)

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        cmd = packet.payload.get("cmd")
        if packet.direction != "to_device" or cmd is None:
            return PASS, packet
        if packet.src in self.allowed_sources:
            return PASS, packet
        if cmd not in self.allow:
            ctx.alert("command-not-whitelisted", cmd=cmd, src=packet.src)
            return DROP, packet
        return PASS, packet

    def describe(self) -> str:
        return f"command_whitelist(allow={sorted(self.allow)})"


class ContextGate(Element):
    """Pass a guarded command only while a global-view condition holds.

    Fig. 5's policy is ``ContextGate(commands={"on"},
    require={"env:occupancy": "present"})`` on the Wemo's µmbox: the "ON"
    message flows "only if the global state identifies a person in the
    room".  Unknown context (view returns None) fails closed.
    """

    name = "context_gate"
    blind_peers = None  # judges device-bound traffic only

    def __init__(self, commands: Iterable[str], require: dict[str, str]) -> None:
        self.commands = frozenset(commands)
        self.require = dict(require)

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        cmd = packet.payload.get("cmd")
        if packet.direction != "to_device" or cmd not in self.commands:
            return PASS, packet
        for key, wanted in self.require.items():
            actual = ctx.view(key)
            if actual != wanted:
                ctx.alert(
                    "context-gate-blocked",
                    cmd=cmd,
                    src=packet.src,
                    condition=f"{key}={wanted}",
                    actual=actual,
                )
                return DROP, packet
        return PASS, packet

    def describe(self) -> str:
        conds = ", ".join(f"{k}={v}" for k, v in sorted(self.require.items()))
        return f"context_gate({sorted(self.commands)} requires {conds})"


class SourceFilter(Element):
    """Allow device-bound traffic only from an approved set of sources."""

    name = "source_filter"
    blind_peers = None  # judges device-bound traffic only

    def __init__(self, allowed_sources: Iterable[str]) -> None:
        self.allowed_sources = frozenset(allowed_sources)

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        if packet.direction != "to_device":
            return PASS, packet
        if packet.src not in self.allowed_sources:
            ctx.alert("unapproved-source", src=packet.src, dport=packet.dport)
            return DROP, packet
        return PASS, packet

    def describe(self) -> str:
        return f"source_filter(allow={sorted(self.allowed_sources)})"


class PacketLogger(Element):
    """Count the packets a µmbox sees, and optionally capture them.

    ``logged`` counts every packet that reached this stage. With
    ``capture=True`` it also retains full packet copies (bounded by
    ``capture_limit``) -- the forensic capture a victim site mines
    signatures from after an incident (:mod:`repro.learning.traceminer`).
    Nothing else is kept per packet.
    """

    name = "packet_logger"

    def __init__(self, capture: bool = False, capture_limit: int = 1000) -> None:
        self.logged = 0
        self.capture = capture
        self.capture_limit = capture_limit
        self.captured: list[Packet] = []

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        self.logged += 1
        if self.capture and len(self.captured) < self.capture_limit:
            self.captured.append(packet.copy())
            if len(self.captured) == self.capture_limit:
                # Evidence gap from here on: auditors must know the capture
                # stopped, or absence of packets reads as absence of traffic.
                ctx.sim.journal.record(
                    "capture-saturated",
                    device=ctx.device,
                    mbox=ctx.mbox_name,
                    limit=self.capture_limit,
                )
        return PASS, packet

    def captured_from(self, src: str) -> list[Packet]:
        return [p for p in self.captured if p.src == src]


#: Longest a tap stays silent about an unchanged device, in seconds: a
#: view key is never older than this plus the device's report period.
TELEMETRY_HEARTBEAT = 30.0

#: A marker no payload value equals: ``TelemetryTap``'s last state before
#: any report is sent (or after a resync), and a report's missing readings.
_MISSING = object()


class TelemetryTap(Element):
    """Mirror device telemetry into the controller's global view.

    The controller learns device state and sensor readings from the traffic
    the µmbox already sees -- no device cooperation needed.  A conforming
    device repeats itself, so the tap forwards a report as a view delta
    only when its ``(state, readings)`` differs from the last one sent, or
    when :data:`TELEMETRY_HEARTBEAT` has passed since.  :meth:`resync`
    (a new controller) forgets the last one, so the next report goes
    through.  The readings ride as the packet carries them: a payload is
    never mutated in place.  A device sends one readings dict until its
    levels change, so the comparison usually passes on identity.
    """

    name = "telemetry_tap"

    def __init__(self) -> None:
        self.reports = 0
        self._state: Any = _MISSING
        self._readings: Any = None
        self._sent_at = 0.0

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        payload = packet.payload
        if (
            packet.direction == "from_device"
            and payload.get("action") == "telemetry"
        ):
            self.reports += 1
            state = payload.get("state")
            readings = payload.get("readings", _MISSING)
            if readings is _MISSING:
                readings = {}
            now = ctx.sim.now
            if (
                state != self._state
                or (readings is not self._readings and readings != self._readings)
                or now - self._sent_at >= TELEMETRY_HEARTBEAT
            ):
                self._state = state
                self._readings = readings
                self._sent_at = now
                ctx.emit_delta(ctx.device, state, readings)
        return PASS, packet

    def resync(self) -> None:
        self._state = _MISSING


class LoginMonitor(Element):
    """Alert on every management-login attempt toward the device.

    The controller's escalation rules turn a storm of these into a
    *suspicious* context (Fig. 3's "Window password brute-forced"
    transition); a single attempt from the owner stays under threshold.
    """

    name = "login_monitor"
    blind_peers = None  # judges device-bound traffic only

    def __init__(self, mgmt_port: int = 80) -> None:
        self.mgmt_port = mgmt_port
        self.attempts = 0

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        if (
            packet.direction == "to_device"
            and packet.dport == self.mgmt_port
            and packet.payload.get("action") == "login"
        ):
            self.attempts += 1
            ctx.alert(
                "login-attempt",
                src=packet.src,
                username=packet.payload.get("username"),
            )
        return PASS, packet
