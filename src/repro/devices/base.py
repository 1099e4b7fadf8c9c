"""The executable IoT device node.

An :class:`IoTDevice` combines an abstract :class:`DeviceModel` (behaviour)
with a :class:`Firmware` (flaws) and binds both to the network and to the
physical :class:`Environment`.  It is intentionally *faithful to the flaws*:
if the firmware ships a backdoor, the device executes unauthenticated
commands arriving on it; if it ships an open DNS resolver, it amplifies
spoofed queries.  Defence lives in the network (µmboxes), never on the
device -- the paper's core premise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.devices.firmware import Firmware
from repro.devices.model import DeviceModel
from repro.devices.protocol import (
    CTRL_PORT,
    DNS_PORT,
    MGMT_PORT,
    STATUS_DENIED,
    STATUS_ERROR,
    STATUS_OK,
    TELEMETRY_PORT,
)
from repro.netsim.node import Node
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.environment.engine import Environment
    from repro.netsim.simulator import Simulator

DNS_AMPLIFICATION = 8  # response bytes per query byte for the open resolver


@dataclass(slots=True)
class CommandRecord:
    """Ground-truth log entry for one control command."""

    at: float
    src: str
    cmd: str
    accepted: bool
    via: str  # "session" | "open" | "noauth" | "backdoor" | "trigger" | "local"
    state_before: str
    state_after: str
    params: dict[str, Any] = field(default_factory=dict)


class IoTDevice(Node):
    """A networked, physically-coupled, (typically) vulnerable device."""

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        model: DeviceModel,
        firmware: Firmware,
        env: "Environment | None" = None,
        report_to: str | None = None,
        telemetry_period: float = 30.0,
    ) -> None:
        super().__init__(name, sim)
        self.model = model
        self.firmware = firmware
        self.env = env
        self.report_to = report_to
        self.telemetry_period = telemetry_period
        self.state = model.initial
        self.sessions: dict[str, str] = {}
        self._session_ids = itertools.count(1)
        self.command_log: list[CommandRecord] = []
        self.login_log: list[tuple[float, str, str, bool]] = []
        self.compromised_by: list[str] = []
        self.dns_replies = 0
        self._telemetry_stop = None
        #: What :meth:`sensor_readings` returns, and the environment's
        #: ``levels_version`` it was built at.
        self._readings: dict[str, str] = {}
        self._readings_version = -1
        if env is not None:
            self._bind_environment(env)

    # ------------------------------------------------------------------
    # Environment binding
    # ------------------------------------------------------------------
    def _bind_environment(self, env: "Environment") -> None:
        self._apply_effects()
        if self.model.triggers:
            env.on_level_change(self._on_env_level)

    def _apply_effects(self) -> None:
        """Publish this state's actuation contributions to the physics."""
        if self.env is None:
            return
        for key in self.model.affected_inputs():
            self.env.clear_input(key, source=self.name)
        for key, value in self.model.effect_inputs(self.state).items():
            self.env.set_input(key, value, source=self.name)
        for variable, level in self.model.binding_for(self.state):
            if variable in self.env.variables:
                self.env.discrete(variable).set(level)

    def _on_env_level(self, variable: str, level: str) -> None:
        for trigger in self.model.triggers:
            if trigger.variable == variable and trigger.level == level:
                self.apply_command(trigger.command, src=self.name, via="trigger")

    def sensor_readings(self) -> dict[str, str]:
        """Current sensed levels, keyed by report name.

        Built once per sensed change, not once per report: every call
        returns the same dict until the environment's ``levels_version``
        moves, so reports share it and nothing may edit it.
        """
        env = self.env
        if env is not None and env.levels_version != self._readings_version:
            variables = env.variables
            readings = {}
            for report_key, name in self.model.sensors:
                variable = variables.get(name)
                if variable is not None:
                    readings[report_key] = variable.level
            self._readings = readings
            self._readings_version = env.levels_version
        return self._readings

    # ------------------------------------------------------------------
    # Command execution (the FSM)
    # ------------------------------------------------------------------
    def apply_command(
        self,
        cmd: str,
        src: str,
        via: str,
        accepted: bool = True,
        **params: Any,
    ) -> CommandRecord:
        """Run one FSM command (or record its rejection)."""
        before = self.state
        after = before
        if accepted:
            after = self.model.next_state(before, cmd)
            if after != before:
                self.state = after
                self._apply_effects()
                self.sim.journal.record(
                    "device",
                    device=self.name,
                    cmd=cmd,
                    src=src,
                    via=via,
                    state_before=before,
                    state_after=after,
                )
        record = CommandRecord(
            at=self.sim.now,
            src=src,
            cmd=cmd,
            accepted=accepted,
            via=via,
            state_before=before,
            state_after=after,
            params=params,
        )
        self.command_log.append(record)
        if accepted and via in ("backdoor", "noauth", "open") and src != self.name:
            # Ground truth: an unauthenticated remote party drove the device.
            if src not in self.compromised_by:
                self.compromised_by.append(src)
                self.sim.journal.record(
                    "compromise", device=self.name, src=src, via=via
                )
        return record

    # ------------------------------------------------------------------
    # Network entry point
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, in_port: int) -> None:
        if packet.dport == MGMT_PORT:
            self._handle_mgmt(packet, in_port)
        elif packet.dport == CTRL_PORT:
            self._handle_control(packet, in_port)
        elif packet.dport == DNS_PORT:
            self._handle_dns(packet, in_port)
        elif (
            self.firmware.backdoor_port is not None
            and packet.dport == self.firmware.backdoor_port
        ):
            self._handle_backdoor(packet, in_port)
        elif packet.dport in self.firmware.open_ports:
            # A non-standard exposed port behaves like an unauthenticated
            # control channel (Table 1 rows 2 and 3: "exposed access").
            self._execute_control(packet, in_port, via="open")
        # Anything else is silently dropped, like a closed port.

    def _reply(self, packet: Packet, in_port: int, payload: dict[str, Any], size: int = 64) -> None:
        self.send(packet.reply(payload, size=size), in_port)

    # Management plane --------------------------------------------------
    def _handle_mgmt(self, packet: Packet, in_port: int) -> None:
        action = packet.payload.get("action")
        if action == "login":
            username = str(packet.payload.get("username", ""))
            password = str(packet.payload.get("password", ""))
            ok = self.firmware.check_login(username, password)
            self.login_log.append((self.sim.now, packet.src, username, ok))
            if ok:
                token = f"{self.name}-s{next(self._session_ids)}"
                self.sessions[token] = username
                self._reply(packet, in_port, {"status": STATUS_OK, "session": token})
            else:
                self._reply(packet, in_port, {"status": STATUS_DENIED})
        elif action == "get":
            if self._mgmt_authorized(packet):
                resource = packet.payload.get("resource", "status")
                self._reply(
                    packet,
                    in_port,
                    {
                        "status": STATUS_OK,
                        "resource": resource,
                        "data": self._resource_data(str(resource)),
                    },
                    size=512,
                )
            else:
                self._reply(packet, in_port, {"status": STATUS_DENIED})
        else:
            self._reply(packet, in_port, {"status": STATUS_ERROR})

    def _mgmt_authorized(self, packet: Packet) -> bool:
        if MGMT_PORT in self.firmware.open_ports:
            return True  # exposed access: no session needed
        return packet.payload.get("session") in self.sessions

    def _resource_data(self, resource: str) -> dict[str, Any]:
        return {"state": self.state, "readings": self.sensor_readings()}

    # Control plane -----------------------------------------------------
    def _handle_control(self, packet: Packet, in_port: int) -> None:
        if not self.firmware.requires_auth_for_control:
            self._execute_control(packet, in_port, via="noauth")
        elif CTRL_PORT in self.firmware.open_ports:
            self._execute_control(packet, in_port, via="open")
        elif packet.payload.get("session") in self.sessions:
            self._execute_control(packet, in_port, via="session")
        else:
            cmd = str(packet.payload.get("cmd", ""))
            self.apply_command(cmd, src=packet.src, via="session", accepted=False)
            self._reply(packet, in_port, {"status": STATUS_DENIED})

    def _execute_control(self, packet: Packet, in_port: int, via: str) -> None:
        cmd = str(packet.payload.get("cmd", ""))
        record = self.apply_command(cmd, src=packet.src, via=via)
        self._reply(
            packet,
            in_port,
            {"status": STATUS_OK, "state": record.state_after},
        )

    # Backdoor ----------------------------------------------------------
    def _handle_backdoor(self, packet: Packet, in_port: int) -> None:
        """The vendor debug port: full control, no credentials, no logging
        visible to the user (we log for ground truth only).

        Debug ports typically expose more than the device's own commands:
        a ``__pivot__`` request makes the device emit an arbitrary packet
        *as itself* -- the "launchpad for deep and scalable attacks" of the
        paper's Figure 1.  The emitted packet carries the device's name as
        source, so perimeter defences see only trusted internal traffic.
        """
        if packet.payload.get("cmd") == "__pivot__":
            if packet.src not in self.compromised_by:
                self.compromised_by.append(packet.src)
                self.sim.journal.record(
                    "compromise", device=self.name, src=packet.src, via="pivot"
                )
            relayed = Packet(
                src=self.name,
                dst=str(packet.payload.get("target", "")),
                protocol=str(packet.payload.get("protocol", "iot")),
                dport=int(packet.payload.get("target_port", CTRL_PORT)),
                payload=dict(packet.payload.get("inner", {})),
                size=96,
            )
            self.send(relayed, in_port)
            self._reply(packet, in_port, {"status": STATUS_OK, "pivoted": True})
            return
        self._execute_control(packet, in_port, via="backdoor")

    # Open DNS resolver ---------------------------------------------------
    def _handle_dns(self, packet: Packet, in_port: int) -> None:
        if "open_dns_resolver" not in self.firmware.services:
            return
        self.dns_replies += 1
        reply = packet.reply(
            {"answer": f"a-record-for-{packet.payload.get('query', '')}"},
            size=packet.size * DNS_AMPLIFICATION,
        )
        self.send(reply, in_port)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def start_telemetry(self) -> None:
        """Begin periodic status reports to ``report_to``."""
        if self.report_to is None or self._telemetry_stop is not None:
            return
        self._telemetry_stop = self.sim.every(self.telemetry_period, self._report)

    def stop_telemetry(self) -> None:
        if self._telemetry_stop is not None:
            self._telemetry_stop()
            self._telemetry_stop = None

    def _report(self) -> None:
        packet = Packet(
            self.name,
            self.report_to or "",
            "udp",
            0,
            TELEMETRY_PORT,
            {"action": "telemetry", "state": self.state, "readings": self.sensor_readings()},
        )
        if self.ports:
            next(iter(self.ports.values())).transmit(self, packet)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sku(self) -> str:
        return self.firmware.sku

    @property
    def kind(self) -> str:
        return self.model.kind

    def is_compromised(self) -> bool:
        """Ground truth for experiment scoring -- invisible to the defence."""
        return bool(self.compromised_by)

    def accepted_commands(self, via: str | None = None) -> list[CommandRecord]:
        return [
            r
            for r in self.command_log
            if r.accepted and (via is None or r.via == via)
        ]

    def __repr__(self) -> str:
        return f"IoTDevice({self.name!r}, kind={self.kind}, state={self.state})"
