"""The µmbox element pipeline and host.

Section 5.2 envisions "a lightweight Click version akin to TinyOS that can
serve as an extensible programming platform for developing these
micro-middleboxes".  Our equivalent: a µmbox is an ordered pipeline of
:class:`Element` objects; each element inspects (and may rewrite) the
packet, returns a verdict, and may raise :class:`Alert` records that flow
to the controller.  Device telemetry is not an alert: a tap forwards a
*view delta* (a device's state and readings, when they change) through
its own sink.

The :class:`MboxHost` is the cluster/IoT-router node that terminates the
switch tunnels, dispatches inner packets to the µmbox bound to the target
device, and returns surviving packets to the ingress switch.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.sdn.tunnel import TUNNEL_PROTOCOL

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

_ALERT_IDS = itertools.count(1)


class Verdict(enum.Enum):
    PASS = "pass"
    DROP = "drop"


@dataclass(slots=True)
class Alert:
    """A security event raised by an element."""

    at: float
    mbox: str
    device: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)
    #: Causal-trace id stamped at birth (see :mod:`repro.obs.trace`); rides
    #: the control channel so the controller continues the same trace.
    trace_id: int | None = None
    alert_id: int = field(default_factory=lambda: next(_ALERT_IDS))

    def __str__(self) -> str:
        return f"Alert#{self.alert_id}[{self.kind}] {self.device} via {self.mbox}: {self.detail}"


#: The alert an edge switch raises against the host on a port that sent a
#: packet claiming an identity bound to another port.
SOURCE_FORGERY = "source-forgery"


@dataclass(slots=True)
class MboxContext:
    """What an element can see beyond the packet itself.

    ``view`` is a read-only accessor into the controller's global state
    (``view("env:occupancy")`` -> level or None): this is how a µmbox
    enforces *context-dependent* policy (Fig. 5's "only if the camera sees
    a person").  ``emit_alert`` forwards events to the controller;
    ``emit_delta(device, state, readings)`` forwards a view delta.
    """

    sim: "Simulator"
    mbox_name: str
    device: str
    view: Callable[[str], str | None]
    emit_alert: Callable[[Alert], None]
    #: The packet under inspection, when the host set one: its first send
    #: is when the alert's ``detect`` stage starts.
    packet: Packet | None = None
    emit_delta: Callable[[str, Any, Any], None] = lambda device, state, readings: None

    @property
    def now(self) -> float:
        return self.sim.now

    def alert(self, kind: str, **detail: Any) -> Alert:
        now = self.sim.now
        trace_id = self.sim.tracer.start_trace()
        # The trace's ``detect`` stage starts when the offending packet was
        # first sent; a packet never sent (or no packet) has no age.
        packet = self.packet
        started = now if packet is None or packet.created_at is None else packet.created_at
        alert = Alert(now, self.mbox_name, self.device, kind, detail, trace_id, next(_ALERT_IDS))
        # Flight recorder: the alert's birth opens its causal trace.
        fields = {
            k: v
            for k, v in detail.items()
            if k not in ("device", "trace", "alert_kind", "mbox", "started")
            and isinstance(v, (str, int, float, bool))
        }
        self.sim.journal.record(
            "alert",
            device=self.device,
            trace=trace_id,
            alert_kind=kind,
            mbox=self.mbox_name,
            started=started,
            **fields,
        )
        self.emit_alert(alert)
        return alert


class Element:
    """One stage of a µmbox pipeline.

    ``process`` returns ``(verdict, packet)``.  The input is the sender's
    own packet, not a copy: an element that rewrites returns a rewritten
    :meth:`~repro.netsim.packet.Packet.copy` and never mutates the input's
    payload or header fields (the sender, and every element after it, hold
    the same object).  ``packet.direction`` is ``"to_device"`` or
    ``"from_device"``, set by the host before the chain runs.
    """

    name = "element"

    #: The device-originated (``from_device``) traffic this element neither
    #: judges nor remembers, as the peers it may be addressed to: for such
    #: a packet ``process`` returns ``(PASS, packet)`` -- the same object --
    #: raises no alert, journals nothing, and leaves no state any later
    #: verdict reads.  ``frozenset()`` declares nothing (the default: the
    #: element must see everything); ``None`` is every peer, the
    #: :class:`~repro.sdn.flowrule.FlowMatch` wildcard.  A pinned posture
    #: whose every module is blind to a flow has it offloaded at the edge
    #: (see :mod:`repro.core.orchestrator`), so a declaration is a promise
    #: ``tests/test_blind_flows.py`` holds every registered kind to.
    blind_peers: frozenset[str] | None = frozenset()

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.name

    def resync(self) -> None:
        """The controller changed: forget what was reported to the old one."""


class Mbox:
    """A µmbox instance: a named pipeline bound to one device."""

    def __init__(
        self,
        name: str,
        device: str,
        elements: list[Element],
        kind: str = "custom",
        fail_mode: str = "closed",
    ) -> None:
        self.name = name
        self.device = device
        self.elements = list(elements)
        self.kind = kind
        self.processed = 0
        self.dropped = 0
        self.ready = True  # manager flips this during boot/reconfigure
        #: True while the instance is crashed (health checks restart it).
        #: Distinct from ``not ready``: a booting µmbox queues packets for
        #: later inspection; a *down* one degrades per ``fail_mode``.
        self.down = False
        #: Degradation policy while down: "closed" blocks the device's
        #: traffic (enforcement µmboxes), "open" passes it uninspected
        #: (pure monitoring).  Set from the posture at deploy time.
        self.fail_mode = fail_mode

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        self.processed += 1
        current = packet
        for element in self.elements:
            verdict, current = element.process(current, ctx)
            if verdict is Verdict.DROP:
                self.dropped += 1
                # Journal the security verdict: which element of which
                # µmbox refused which packet.  PASS verdicts are routine
                # traffic and are deliberately not journaled (volume).
                ctx.sim.journal.record(
                    "verdict",
                    device=self.device,
                    verdict="drop",
                    mbox=self.name,
                    element=element.name,
                    pkt=current.pkt_id,
                    src=current.src,
                    dport=current.dport,
                )
                return Verdict.DROP, current
        return Verdict.PASS, current

    def reconfigure(self, elements: list[Element]) -> None:
        self.elements = list(elements)

    def describe(self) -> str:
        chain = " -> ".join(e.describe() for e in self.elements) or "allow"
        return f"{self.name}[{self.kind}] for {self.device}: {chain}"


class MboxHost(Node):
    """The security-cluster node: terminates tunnels, runs µmboxes.

    Packets for devices with no bound µmbox (or one still booting with a
    full queue) follow ``default_verdict`` -- fail-closed (DROP) by
    default, because an unprotected vulnerable device is the thing we are
    here to prevent.
    """

    def __init__(
        self,
        name: str,
        sim: "Simulator",
        view: Callable[[str], str | None] | None = None,
        alert_sink: Callable[[Alert], None] | None = None,
        default_verdict: Verdict = Verdict.DROP,
        boot_queue_limit: int = 64,
    ) -> None:
        super().__init__(name, sim)
        self.mboxes: dict[str, Mbox] = {}          # device -> mbox
        self.view = view or (lambda key: None)
        self.alert_sink = alert_sink or (lambda alert: None)
        #: Where view deltas go: ``delta_sink(device, state, readings)``.
        self.delta_sink: Callable[[str, Any, Any], None] = lambda device, state, readings: None
        self.default_verdict = default_verdict
        self.boot_queue_limit = boot_queue_limit
        self._boot_queues: dict[str, list[tuple[Packet, int]]] = {}
        self.alerts: list[Alert] = []
        self.tunnelled_in = 0
        self.returned = 0
        self.unbound_drops = 0
        self.down_drops = 0
        self.fail_open_passes = 0
        #: Optional durable store-and-forward stream
        #: (:class:`repro.obs.stream.HostStream`).
        self.stream = None
        # Observability: callback gauges over the counters above, plus
        # per-kind alert counters (resolved lazily, cached by kind).
        metrics = sim.metrics
        self.metric_labels = {"host": metrics.unique(name)}
        metrics.gauge("mbox_tunnelled_in", fn=lambda: self.tunnelled_in, **self.metric_labels)
        metrics.gauge("mbox_returned", fn=lambda: self.returned, **self.metric_labels)
        metrics.gauge("mbox_unbound_drops", fn=lambda: self.unbound_drops, **self.metric_labels)
        metrics.gauge("mbox_down_drops", fn=lambda: self.down_drops, **self.metric_labels)
        metrics.gauge(
            "mbox_fail_open_passes", fn=lambda: self.fail_open_passes, **self.metric_labels
        )
        metrics.gauge(
            "mbox_boot_queue_depth",
            fn=lambda: sum(len(q) for q in self._boot_queues.values()),
            **self.metric_labels,
        )
        self._alert_counters: dict[str, Any] = {}
        #: ``mbox_view_deltas``: view deltas forwarded, kept apart from the
        #: alerts (a delta is device state for the view, not an event).
        self._delta_counter: Any = None
        # Inspection is synchronous, so one context per device is reused
        # (only ``packet`` varies).
        self._ctx_cache: dict[str, MboxContext] = {}

    # ------------------------------------------------------------------
    # Binding (the manager/orchestrator calls these)
    # ------------------------------------------------------------------
    def bind(self, device: str, mbox: Mbox) -> None:
        self.mboxes[device] = mbox
        if mbox.ready:
            self._drain_boot_queue(device)

    def unbind(self, device: str) -> None:
        """Drop the device's µmbox; its boot queue takes the unbound path."""
        self.mboxes.pop(device, None)
        self._drain_boot_queue(device)

    def mark_ready(self, mbox: Mbox) -> None:
        """``mbox`` booted; ignored once unbound (a torn-down one's timer)."""
        if self.mboxes.get(mbox.device) is mbox:
            mbox.ready = True
            self._drain_boot_queue(mbox.device)

    def _drain_boot_queue(self, device: str) -> None:
        for packet, in_port in self._boot_queues.pop(device, []):
            self._process_inner(packet, in_port)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, in_port: int) -> None:
        if packet.protocol != TUNNEL_PROTOCOL:
            return  # the cluster only speaks tunnel
        self.tunnelled_in += 1
        self._process_inner(packet, in_port)

    def _process_inner(self, outer: Packet, in_port: int) -> None:
        payload = outer.payload
        inner: Packet = payload["inner"]
        device = payload.get("target", "")
        mbox = self.mboxes.get(device)
        if mbox is None:
            if self.default_verdict is not Verdict.PASS:
                self.unbound_drops += 1
                self.sim.journal.record(
                    "verdict",
                    device=device,
                    verdict="drop",
                    mbox=self.name,
                    element="(unbound)",
                    pkt=inner.pkt_id,
                    src=inner.src,
                )
                return
            result = inner
        elif mbox.down:
            # Degradation policy: a crashed enforcement µmbox fails closed
            # (the device blocks -- unprotected is worse than unreachable);
            # a crashed monitoring µmbox fails open (losing visibility is
            # acceptable, losing connectivity is not).
            if mbox.fail_mode != "open":
                self.down_drops += 1
                self.sim.journal.record(
                    "verdict",
                    device=device,
                    verdict="drop",
                    mbox=mbox.name,
                    element="(mbox-down)",
                    pkt=inner.pkt_id,
                    src=inner.src,
                )
                return
            self.fail_open_passes += 1
            self.sim.journal.record(
                "fail-open",
                device=device,
                mbox=mbox.name,
                pkt=inner.pkt_id,
                src=inner.src,
            )
            result = inner
        elif not mbox.ready:
            queue = self._boot_queues.setdefault(device, [])
            if len(queue) < self.boot_queue_limit:
                queue.append((outer, in_port))
            else:
                self.unbound_drops += 1
                self.sim.journal.record(
                    "verdict",
                    device=device,
                    verdict="drop",
                    mbox=self.name,
                    element="(boot-queue-full)",
                    pkt=inner.pkt_id,
                    src=inner.src,
                )
            return
        else:
            # The chain sees the sender's own packet (elements copy before
            # they rewrite); only the direction slot is the host's to write.
            inner.direction = "to_device" if inner.dst == device else "from_device"
            ctx = self._ctx_cache.get(device)
            if ctx is None or ctx.mbox_name != mbox.name:
                ctx = MboxContext(
                    sim=self.sim,
                    mbox_name=mbox.name,
                    device=device,
                    view=self.view,
                    emit_alert=self._on_alert,
                    emit_delta=self._on_delta,
                )
                self._ctx_cache[device] = ctx
            ctx.packet = inner
            verdict, result = mbox.process(inner, ctx)
            if verdict is not Verdict.PASS:
                return
        # The one return path, for every PASS: the envelope turns around.
        self.returned += 1
        payload["inner"] = result
        payload["inspected"] = True
        outer.src = self.name
        outer.dst = payload["ingress"]
        self.send(outer, in_port)

    def attach_stream(self, stream) -> None:
        """Install a durable store-and-forward stream for this host's alerts."""
        self.stream = stream

    def _on_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        counter = self._alert_counters.get(alert.kind)
        if counter is None:
            counter = self.sim.metrics.counter(
                "mbox_alerts", kind=alert.kind, **self.metric_labels
            )
            self._alert_counters[alert.kind] = counter
        counter.inc()
        self.alert_sink(alert)

    def _on_delta(self, device: str, state: Any, readings: Any) -> None:
        counter = self._delta_counter
        if counter is None:
            # Registered at the first delta, as ``mbox_alerts`` is per kind.
            counter = self._delta_counter = self.sim.metrics.counter(
                "mbox_view_deltas", **self.metric_labels
            )
        counter.inc()
        self.delta_sink(device, state, readings)

    def resync(self) -> None:
        """Every element forgets what it reported: the controller changed."""
        for mbox in self.mboxes.values():
            for element in mbox.elements:
                element.resync()

    # ------------------------------------------------------------------
    def alerts_for(self, device: str) -> list[Alert]:
        return [a for a in self.alerts if a.device == device]
