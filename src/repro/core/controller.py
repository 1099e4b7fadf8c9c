"""The IoTSec controller.

Closes the loop of Figure 2: events from devices and µmboxes flow in over
the control channel, the global view updates, device security contexts
escalate, the policy FSM is re-evaluated for the affected devices, and the
orchestrator redeploys postures and flow rules -- all in simulated time, so
reaction latency is a first-class measurement.

The loop itself runs through the staged reactive pipeline
(:mod:`repro.core.pipeline`): ingest -> escalate -> evaluate -> actuate.
The controller owns the *policy* of the loop -- which alerts matter, when
contexts escalate, what counts as an insider -- and delegates the
mechanics (dirty tracking, same-instant batching, batched actuation) to
:class:`~repro.core.pipeline.ReactivePipeline`.

Context escalation (how raw alerts become the paper's
normal/suspicious/compromised contexts) is policy too: an
:class:`EscalationRule` maps an alert kind and a repetition threshold to a
context value.  Defaults implement the narrative of Figs. 3-5: a backdoor
signature match or repeated failed logins make a device *suspicious*; a
confirmed exfiltration or sustained abuse makes it *compromised*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.orchestrator import PostureOrchestrator
from repro.core.overload import CLASS_ENFORCING, CLASS_MONITOR, IngestConfig, IngestQueue
from repro.core.pipeline import (
    DEFAULT_ESCALATIONS,
    EscalationRule,
    ReactionRecord,
    ReactivePipeline,
)
from repro.core.view import GlobalView
from repro.obs.stream import VIEW_DELTA, DeadLetterQueue, StreamConsumer
from repro.policy.context import NORMAL, SEVERITY
from repro.policy.fsm import PolicyFSM
from repro.sdn.channel import ControlChannel, ControlMessage
from repro.sdn.tunnel import tunnel_packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.devices.base import IoTDevice
    from repro.environment.engine import Environment
    from repro.netsim.packet import Packet
    from repro.netsim.simulator import Simulator
    from repro.netsim.switch import Switch
    from repro.netsim.topology import Topology
    from repro.policy.pruning import PrunedPolicy

__all__ = [
    "DEFAULT_ESCALATIONS",
    "EscalationRule",
    "IoTSecController",
    "ReactionRecord",
]

_SEVERITY = SEVERITY


class IoTSecController:
    """The logically centralized controller of Figure 2."""

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        policy: PolicyFSM,
        orchestrator: PostureOrchestrator,
        channel: ControlChannel,
        topology: "Topology | None" = None,
        escalations: tuple[EscalationRule, ...] = DEFAULT_ESCALATIONS,
        ingest: IngestConfig | None = None,
        durable_telemetry: bool = False,
        host_trust: Any = None,
    ) -> None:
        self.name = name
        self.sim = sim
        self.policy = policy
        self.orchestrator = orchestrator
        self.channel = channel
        self.topology = topology
        self.escalations = escalations
        self.view = GlobalView(sim)
        self.pipeline = ReactivePipeline(
            sim=sim,
            view=self.view,
            policy=policy,
            orchestrator=orchestrator,
            escalations=escalations,
        )
        self.devices: dict[str, "IoTDevice"] = {}
        self.packet_ins = 0
        #: Set by :meth:`crash` -- a dead controller processes nothing.
        self.crashed = False
        #: Switches this controller serves packet-ins for (detached on crash).
        self._adopted: list["Switch"] = []
        #: Optional bounded priority ingest queue (None = direct dispatch).
        self.ingest: IngestQueue | None = (
            IngestQueue(
                sim,
                handler=lambda payload: self._dispatch_alert(*payload),
                config=ingest,
                name=name,
            )
            if ingest is not None
            else None
        )
        channel.register(name, self.on_control_message)
        # Control-message kinds other than "alert" (which
        # :meth:`on_control_message` hands to :meth:`_on_alert` itself)
        # resolve through one dict lookup.
        self._control_dispatch: dict[str, Any] = {
            "context": self._on_context_message,
            VIEW_DELTA: self._on_delta_message,
        }
        #: Durable telemetry plane (opt-in): the consumer end of every
        #: host's store-and-forward stream, plus the dead-letter queue for
        #: records refused at the door (schema failures, flagged hosts).
        self.dlq: DeadLetterQueue | None = None
        self.stream: StreamConsumer | None = None
        if durable_telemetry:
            self.dlq = DeadLetterQueue(sim, name=name)
            self.stream = StreamConsumer(
                sim,
                channel,
                name,
                deliver=self._on_stream_record,
                dlq=self.dlq,
                host_trust=host_trust,
            )
            self._control_dispatch["stream"] = self.stream.on_batch
        #: Per-device sensor maps (``report_key -> policy variable``),
        #: cached at registration so telemetry ingest never rebuilds them.
        self._sensor_maps: dict[str, dict[str, str]] = {}
        # Observability: alert ingress by kind (cached counters) plus a
        # packet-in gauge over the attribute the data path increments.
        metrics = sim.metrics
        self.metric_labels = {"controller": metrics.unique(name)}
        metrics.gauge(
            "controller_packet_ins", fn=lambda: self.packet_ins, **self.metric_labels
        )
        self._alert_counters: dict[str, Any] = {}
        #: ``controller_view_deltas``, registered at the first delta.
        self._delta_counter: Any = None

    # ------------------------------------------------------------------
    # Pipeline-derived state (kept as attributes of the controller so the
    # established surface -- reactions, pruned, defaults -- stays stable)
    # ------------------------------------------------------------------
    @property
    def pruned(self) -> "PrunedPolicy":
        return self.pipeline.pruned

    @property
    def reactions(self) -> list[ReactionRecord]:
        return self.pipeline.reactions

    @property
    def _defaults(self) -> dict[str, str]:
        return self.pipeline.defaults

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_device(self, device: "IoTDevice") -> None:
        """Track a device: seed its context and remember its sensor map."""
        self.devices[device.name] = device
        model = getattr(device, "model", None)
        if model is not None:
            self._sensor_maps[device.name] = dict(model.sensors)
        self.view.set(f"ctx:{device.name}", NORMAL)
        self.view.set(f"dev:{device.name}", device.state)

    def watch_environment(self, env: "Environment", sensing_latency: float = 0.05) -> None:
        """Learn environment levels as (slightly delayed) sensor reports."""

        def on_change(variable: str, level: str) -> None:
            self.sim.schedule(
                sensing_latency, self._ingest_env, variable, level
            )

        env.on_level_change(on_change)
        for name, variable in env.variables.items():
            self.view.set(f"env:{name}", variable.level)

    def _ingest_env(self, variable: str, level: str) -> None:
        if self.crashed:
            # Environment closures captured this (now dead) controller;
            # the live sensor feed belongs to its successor.
            return
        self.view.set(f"env:{variable}", level)

    def adopt_packet_in(self, switch: "Switch") -> None:
        """Serve as the switch's reactive forwarder."""
        switch.packet_in_handler = self._on_packet_in
        if switch not in self._adopted:
            self._adopted.append(switch)

    def _on_packet_in(self, switch: "Switch", packet: "Packet", in_port: int) -> None:
        self.packet_ins += 1
        # Device-to-device traffic must traverse the *destination's* µmbox
        # too: unless the packet is the return of that very µmbox, a packet
        # to a tunnelled device is re-encapsulated toward it, not forwarded.
        inspected_by = packet.inspected_by
        attachment = self.orchestrator.attachments.get(packet.dst)
        if (
            attachment is not None
            and attachment.switch is switch
            and packet.dst in self.orchestrator.tunnels
            and packet.dst != inspected_by
        ):
            outer = tunnel_packet(packet, switch.name, packet.dst)
            # Address the outer packet to the cluster host so intermediate
            # switches (enterprise core) can route it there.
            outer.dst = self.orchestrator.manager.host.name
            switch.send(outer, attachment.cluster_port)
            return
        if self.topology is None:
            return
        port = self.topology.next_hop_port(switch.name, packet.dst)
        if port is None:
            return
        # Inspected packets may legitimately hairpin: they arrived from the
        # cluster on the uplink and must leave through the same uplink.
        if port != in_port or inspected_by is not None:
            switch.send(packet, port)

    # ------------------------------------------------------------------
    # Control-channel ingress
    # ------------------------------------------------------------------
    def on_control_message(self, message: ControlMessage) -> None:
        if self.crashed:
            return
        kind = message.kind
        if kind == "alert":
            self._on_alert(message.body, message.sent_at)
            return
        handler = self._control_dispatch.get(kind)
        if handler is not None:
            handler(message)

    def _on_delta_message(self, message: ControlMessage) -> None:
        self._apply_delta(message.body)

    def _on_stream_record(self, body: dict[str, Any], sent_at: float) -> None:
        """One record the durable stream consumed: a delta or an alert."""
        if body.get("kind") == VIEW_DELTA:
            self._apply_delta(body)
        else:
            self._on_alert(body, sent_at)

    def _apply_delta(self, body: dict[str, Any]) -> None:
        """A view delta: set the device's view keys, no alert behind it."""
        counter = self._delta_counter
        if counter is None:
            counter = self._delta_counter = self.sim.metrics.counter(
                "controller_view_deltas", **self.metric_labels
            )
        counter.inc()
        self._ingest_telemetry(str(body.get("device", "")), body)

    def _on_context_message(self, message: ControlMessage) -> None:
        variable = str(message.body.get("variable", ""))
        level = str(message.body.get("level", ""))
        if variable:
            self.view.set(f"env:{variable}", level)

    def _alert_class(self, device: str) -> int:
        """Shedding priority: alerts for enforcing postures before monitor."""
        posture = self.orchestrator.current.get(device)
        if (
            posture is not None
            and not posture.is_permissive
            and posture.name != "monitor"
        ):
            return CLASS_ENFORCING
        return CLASS_MONITOR

    def _on_alert(self, body: dict[str, Any], sent_at: float) -> None:
        """Arrival: account for the alert, then queue or dispatch it."""
        kind = str(body.get("kind", ""))
        counter = self._alert_counters.get(kind)
        if counter is None:
            counter = self.sim.metrics.counter(
                "controller_alerts", kind=kind, **self.metric_labels
            )
            self._alert_counters[kind] = counter
        counter.inc()

        if self.ingest is not None:
            device = str(body.get("device", ""))
            self.ingest.offer(self._alert_class(device), (body, sent_at))
        else:
            self._dispatch_alert(body, sent_at)

    def _dispatch_alert(self, body: dict[str, Any], sent_at: float) -> None:
        """Service: the alert reached the front of the loop -- process it."""
        device = str(body.get("device", ""))
        kind = str(body.get("kind", ""))
        detail = body.get("detail") or {}  # read-only below; no copy needed
        # Continue the causal trace the µmbox started: the time between the
        # alert leaving the host and arriving here is control-channel cost.
        tracer = self.sim.tracer
        trace = body.get("trace")
        self.sim.journal.record(
            "alert-ingest",
            device=device,
            trace=trace,
            alert_kind=kind,
            controller=self.name,
            sent_at=sent_at,
        )
        tracer.push(trace)
        try:
            self._escalate(device, kind, at=sent_at)
            # Insider escalation: when the offending *source* is one of our
            # own devices, it is being used as a launchpad -- flag it too.
            source = detail.get("src")
            if (
                isinstance(source, str)
                and source in self.devices
                and source != device
            ):
                # Journaled separately so the write-ahead-log replay can
                # rebuild the insider's escalation window too.
                self.sim.journal.record(
                    "alert-ingest",
                    device=source,
                    trace=trace,
                    alert_kind="insider",
                    controller=self.name,
                    sent_at=sent_at,
                )
                self._escalate(source, "insider", at=sent_at)
        finally:
            tracer.pop()

    def _ingest_telemetry(self, device: str, detail: dict[str, Any]) -> None:
        """Set ``dev:`` and ``env:`` view keys from a view delta's
        ``state`` and ``readings``."""
        state = detail.get("state")
        if state is not None:
            self.view.set(f"dev:{device}", str(state))
        readings = detail.get("readings")
        if not readings:
            return
        sensor_map = self._sensor_maps.get(device)
        if sensor_map is None:
            model = getattr(self.devices.get(device), "model", None)
            if model is None:
                return
            sensor_map = self._sensor_maps[device] = dict(model.sensors)
        for report_key, value in readings.items():
            variable = sensor_map.get(report_key)
            if variable is not None:
                self.view.set(f"env:{variable}", str(value))

    # ------------------------------------------------------------------
    # Escalation
    # ------------------------------------------------------------------
    def _escalate(self, device: str, alert_kind: str, at: float) -> None:
        if not device:
            return
        context = self.pipeline.escalate(device, alert_kind, at)
        if context is not None:
            self.sim.journal.record(
                "escalation",
                device=device,
                trace=self.sim.tracer.current(),
                alert_kind=alert_kind,
                context=context,
            )
            self.set_context(device, context)

    def set_context(self, device: str, context: str) -> None:
        """Raise a device's security context (never silently lowers it)."""
        key = f"ctx:{device}"
        current = self.view.get(key) or NORMAL
        if _SEVERITY.get(context, 0) >= _SEVERITY.get(current, 0):
            if context != current:
                self.sim.journal.record(
                    "context",
                    device=device,
                    trace=self.sim.tracer.current(),
                    context=context,
                    previous=current,
                )
            self.view.set(key, context)

    def clear_context(self, device: str) -> None:
        """Administrative reset to normal (the admin vetted the device)."""
        self.view.set(f"ctx:{device}", NORMAL)

    # ------------------------------------------------------------------
    # The policy loop (delegated to the reactive pipeline)
    # ------------------------------------------------------------------
    def update_policy(self, rule) -> None:
        """Add a rule to the live policy and re-enforce the affected device.

        Policies are not static in IoT (section 5.1's whole point): new
        signatures or attack-graph hardening plans add rules at runtime.
        The pruned lookup structure is updated *incrementally* -- only the
        touched device's projected table is rebuilt -- and that device
        re-evaluated immediately.
        """
        self.pipeline.add_rule(rule)
        if rule.device in self.orchestrator.attachments:
            self.pipeline.evaluate_device(rule.device, "policy-update")

    def enforce_all(self) -> None:
        """Evaluate and apply the posture of every policy device now."""
        self.pipeline.enforce_all()

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Kill this controller instance: it stops processing everything.

        The endpoint is unregistered (reliable sends wait on their lane
        and deliver, in order, to whichever controller registers the name
        next -- restart or failover), adopted switches lose their
        packet-in handler (reactive forwarding goes dark), the pipeline
        is halted so no queued zero-delay round actuates posthumously,
        and any queued ingest work is discarded.
        """
        if self.crashed:
            return
        self.crashed = True
        self.channel.unregister(self.name)
        for switch in self._adopted:
            if switch.packet_in_handler == self._on_packet_in:
                switch.packet_in_handler = None
        self.pipeline.halt()
        dropped_queue = self.ingest.clear() if self.ingest is not None else 0
        self.sim.journal.record(
            "controller-crash",
            controller=self.name,
            queued_lost=dropped_queue,
            view_keys=len(self.view.entries),
        )

    # ------------------------------------------------------------------
    def context_of(self, device: str) -> str:
        return self.view.get(f"ctx:{device}") or NORMAL
