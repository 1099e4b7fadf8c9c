"""The controller <-> switch control channel.

Control messages (packet-in, flow-mod, posture updates, context events)
travel over this channel with a configurable one-way latency, so control-
plane responsiveness is measurable in simulated time -- the core question of
the paper's section 5.1.

The channel is deliberately message-type agnostic: it delivers
:class:`ControlMessage` envelopes and lets endpoints dispatch on ``kind``.

Resilience
----------
The paper puts *all* enforcement behind this channel, which makes a lost
control message a security event: the device silently stays in (or reverts
to) its vulnerable default.  Two additions model and mitigate that:

- a deterministic **fault model** (:class:`FaultModel`): seeded random
  drops, seeded extra delay, and partition windows in simulated time --
  injected with :meth:`ControlChannel.inject_faults`, so every chaos run is
  reproducible;
- **at-least-once delivery** (``send(..., reliable=True)``): per-message
  ack + timeout, exponential backoff with a retry cap, and sequence-number
  dedup on the receiver so the application layer sees each message exactly
  once however many times the wire needed.  Every drop, retry, duplicate
  and give-up is journaled and counted.

``call`` extends the same machinery to RPC-style delivery (the consistent
updater's install/flip messages), keeping two-phase epochs correct under
retransmission: the dedup layer guarantees each flow-mod applies at most
once, and the retry layer guarantees it eventually applies unless the
channel gives up -- which is journaled, never silent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Event, Simulator

_MSG_IDS = itertools.count(1)
_INF = float("inf")


@dataclass(slots=True)
class ControlMessage:
    """An envelope on the control channel."""

    kind: str
    sender: str
    body: dict[str, Any] = field(default_factory=dict)
    sent_at: float = 0.0
    msg_id: int = field(default_factory=lambda: next(_MSG_IDS))


@dataclass(frozen=True)
class PartitionWindow:
    """A simulated-time interval during which messages are lost.

    ``endpoints`` restricts the partition to traffic *to* those endpoints;
    ``None`` partitions the whole channel (controller unreachable).  An
    ``end`` of ``inf`` never heals.
    """

    start: float
    end: float
    endpoints: frozenset[str] | None = None

    def __post_init__(self) -> None:
        if not self.start <= self.end:  # NaN on either side too
            raise ValueError(
                f"partition must start before it ends ({self.start}, {self.end})"
            )


class FaultModel:
    """Deterministic control-channel faults, all seeded, all sim-time.

    ``drop_prob`` loses each transmission independently; ``jitter`` adds a
    uniform extra delay in ``[0, jitter]`` to surviving ones; partition
    windows lose everything to the covered endpoints for their duration.
    The model owns its RNG, so two runs with the same seed and the same
    send sequence observe the identical fault pattern.
    """

    def __init__(
        self,
        seed: int = 0,
        drop_prob: float = 0.0,
        jitter: float = 0.0,
        partitions: tuple[PartitionWindow, ...] = (),
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError(f"drop_prob must be in [0, 1) (got {drop_prob})")
        if not 0.0 <= jitter < _INF:
            raise ValueError(f"jitter must be finite and >= 0 (got {jitter})")
        self.seed = seed
        self.rng = random.Random(seed)
        self.drop_prob = drop_prob
        self.jitter = jitter
        self.partitions: list[PartitionWindow] = list(partitions)

    def add_partition(
        self, start: float, end: float, endpoints: tuple[str, ...] | None = None
    ) -> PartitionWindow:
        window = PartitionWindow(
            start, end, frozenset(endpoints) if endpoints else None
        )
        self.partitions.append(window)
        return window

    def partitioned(self, now: float, to: str) -> bool:
        """Whether a partition window covers traffic to ``to`` at ``now``."""
        for w in self.partitions:
            if w.start <= now < w.end and (w.endpoints is None or to in w.endpoints):
                return True
        return False

    def drop_reason(self, now: float, to: str) -> str | None:
        """Why this transmission is lost, or ``None`` when it survives."""
        if self.partitions and self.partitioned(now, to):
            return "partition"
        if self.drop_prob and self.rng.random() < self.drop_prob:
            return "drop"
        return None

    def extra_delay(self) -> float:
        if self.jitter <= 0:
            return 0.0
        return self.rng.uniform(0.0, self.jitter)


@dataclass(frozen=True)
class RetryPolicy:
    """At-least-once parameters for ``reliable`` sends.

    The first retransmission fires ``timeout`` after the original send;
    each subsequent one backs off by ``backoff``x, up to ``max_retries``
    retransmissions before the channel gives up (journaled, counted --
    never silent).  ``timeout`` should comfortably exceed one RTT to the
    slowest endpoint or healthy messages will retransmit spuriously
    (dedup keeps that harmless, but it wastes simulated bandwidth).
    """

    timeout: float = 0.05
    backoff: float = 2.0
    max_retries: int = 8

    def delay(self, attempt: int) -> float:
        """Timeout after retransmission number ``attempt`` (0-based)."""
        return self.timeout * (self.backoff**attempt)


class ControlChannel:
    """A star-shaped control network between one controller and many peers.

    Peers register a handler by name; ``send`` delivers after ``latency``
    seconds.  Per-destination latency overrides model remote sites (e.g. a
    cloud controller far from a home gateway).
    """

    def __init__(
        self,
        sim: "Simulator",
        latency: float = 0.002,
        retry_policy: RetryPolicy | None = None,
        dedup_ttl: float = 60.0,
        dedup_max: int = 4096,
    ) -> None:
        if not latency >= 0:  # NaN too: ``send`` pushes ``now + latency`` unchecked
            raise ValueError(f"latency must be >= 0 (got {latency})")
        if dedup_ttl <= 0:
            raise ValueError(f"dedup_ttl must be positive (got {dedup_ttl})")
        if dedup_max <= 0:
            raise ValueError(f"dedup_max must be positive (got {dedup_max})")
        self.sim = sim
        self.latency = latency
        self.retry_policy = retry_policy or RetryPolicy()
        #: Dedup-table retention.  The TTL must comfortably exceed the
        #: worst-case retransmission span (default retry policy: ~25.6s of
        #: backoff) or a late retransmission of an evicted id would be
        #: delivered twice; the size cap bounds memory under bursts.
        self.dedup_ttl = dedup_ttl
        self.dedup_max = dedup_max
        self.fault_model: FaultModel | None = None
        self._handlers: dict[str, Callable[[ControlMessage], None]] = {}
        self._latency_override: dict[str, float] = {}
        self.sent = 0
        self.delivered = 0
        self.undeliverable = 0
        self.dropped = 0
        self.retries = 0
        self.giveups = 0
        self.duplicates = 0
        self.acked = 0
        self.dedup_evictions = 0
        #: receiver-side dedup: endpoint -> {msg_id: expiry}.  The TTL is
        #: constant, so insertion order *is* expiry order and eviction
        #: pops from the front of the (insertion-ordered) dict.
        self._seen: dict[str, dict[int, float]] = {}
        #: sender-side reliability state: msg_id -> pending retry timer
        self._inflight: dict[int, "Event"] = {}
        self._acked_ids: dict[int, float] = {}
        metrics = sim.metrics
        self.metric_labels = {"channel": metrics.unique("control")}
        metrics.gauge("channel_sent", fn=lambda: self.sent, **self.metric_labels)
        metrics.gauge(
            "channel_delivered", fn=lambda: self.delivered, **self.metric_labels
        )
        metrics.gauge(
            "channel_undeliverable",
            fn=lambda: self.undeliverable,
            **self.metric_labels,
        )
        self._c_dropped = metrics.counter("channel_dropped", **self.metric_labels)
        self._c_retries = metrics.counter("channel_retries", **self.metric_labels)
        self._c_giveups = metrics.counter("channel_giveups", **self.metric_labels)
        self._c_duplicates = metrics.counter(
            "channel_duplicates", **self.metric_labels
        )
        self._c_dedup_evictions = metrics.counter(
            "channel_dedup_evictions", **self.metric_labels
        )

    def _prune_dedup(self, table: dict[int, float], endpoint: str) -> None:
        """Evict expired/oversize dedup entries from the table's front.

        Entries are inserted with ``now + dedup_ttl`` and the TTL is
        constant, so the insertion-ordered dict is also expiry-ordered:
        eviction only ever needs to look at the oldest entry.  Evictions
        are journaled (batched per call) -- losing dedup state early is a
        correctness hazard worth an audit trail.
        """
        now = self.sim.now
        evicted = 0
        while table:
            msg_id = next(iter(table))
            if table[msg_id] <= now or len(table) > self.dedup_max:
                del table[msg_id]
                evicted += 1
            else:
                break
        if evicted:
            self.dedup_evictions += evicted
            self._c_dedup_evictions.inc(evicted)
            self.sim.journal.record(
                "ctrl-dedup-evict",
                endpoint=endpoint,
                evicted=evicted,
                retained=len(table),
            )

    def register(self, name: str, handler: Callable[[ControlMessage], None]) -> None:
        """Register (or replace) the message handler for endpoint ``name``."""
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def set_latency_to(self, name: str, latency: float) -> None:
        """Override the one-way latency for messages *to* ``name``."""
        if not latency >= 0:
            raise ValueError(f"latency must be >= 0 (got {latency})")
        self._latency_override[name] = latency

    def latency_to(self, name: str) -> float:
        return self._latency_override.get(name, self.latency)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def inject_faults(self, model: FaultModel | None) -> FaultModel | None:
        """Install (or clear, with ``None``) the channel's fault model."""
        self.fault_model = model
        return model

    def partition(
        self, start: float, end: float, endpoints: tuple[str, ...] | None = None
    ) -> PartitionWindow:
        """Schedule a partition window; creates a benign fault model if none."""
        if self.fault_model is None:
            self.fault_model = FaultModel()
        return self.fault_model.add_partition(start, end, endpoints)

    def reachable(self, to: str) -> bool:
        """Whether ``to`` is outside every current partition window.

        Partitions are declarative (keyed on simulated time), so a sender
        can consult this *before* transmitting -- the durable telemetry
        stream uses it to keep buffering through a multi-hour outage
        instead of burning events and journal space on doomed sends.
        Random per-transmission drops are not knowable in advance and are
        deliberately not reflected here.
        """
        model = self.fault_model
        return model is None or not model.partitioned(self.sim.now, to)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(
        self,
        sender: str,
        to: str,
        kind: str,
        body: dict[str, Any] | None = None,
        reliable: bool = False,
    ) -> ControlMessage:
        """Send a control message; delivery is scheduled on the simulator.

        With ``reliable=True`` the message is retransmitted on ack timeout
        (exponential backoff, capped) and deduplicated at the receiver, so
        the handler observes it exactly once -- or a journaled give-up.
        """
        sim = self.sim
        # The body's one copy on its way to the receiver (the isolation
        # boundary): shallow, so the values it holds are shared, and the
        # layers on either side treat them as immutable.
        message = ControlMessage(kind, sender, dict(body or {}), sim.now, next(_MSG_IDS))
        self.sent += 1
        if not reliable and self.fault_model is None:
            # Fire-and-forget on a healthy wire (alerts and telemetry ride
            # here, at data-plane volume): nothing can drop, delay or retry
            # the message, so the delivery :meth:`_transmit` would schedule
            # is pushed here, as ``Link.transmit`` pushes a hop.  Latencies
            # are checked (>= 0, not NaN) where they are set.  The entry's
            # layout is the simulator's: its module docstring lists every
            # site that builds one.
            heappush(
                sim._heap,
                [
                    sim.now + self._latency_override.get(to, self.latency),
                    next(sim._seq),
                    self._deliver,
                    (to, message),
                ],
            )
            return message
        self._transmit(message, to, partial(self._deliver, to, message), reliable, attempt=0)
        return message

    def _deliver(self, to: str, message: ControlMessage) -> bool:
        """Hand ``message`` to whoever is registered as ``to`` *now*."""
        handler = self._handlers.get(to)
        if handler is None:
            self.undeliverable += 1
            return False
        self.delivered += 1
        handler(message)
        return True

    def call(
        self,
        sender: str,
        to: str,
        fn: Callable[[], None],
        kind: str = "rpc",
        reliable: bool = False,
    ) -> ControlMessage:
        """Deliver ``fn()`` at endpoint ``to`` over the channel (RPC-style).

        Used by the consistent updater for switch installs/flips: the
        payload is a closure rather than a registered handler, but the
        message still rides the wire -- fault model, retry, backoff and
        dedup all apply, and dedup guarantees ``fn`` executes at most once
        however many retransmissions the fault pattern forces.
        """
        message = ControlMessage(kind, sender, {}, self.sim.now, next(_MSG_IDS))
        self.sent += 1

        def deliver_fn() -> bool:
            self.delivered += 1
            fn()
            return True

        self._transmit(message, to, deliver_fn, reliable, attempt=0)
        return message

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def _journal_device(self, message: ControlMessage) -> str:
        device = message.body.get("device", "")
        return device if isinstance(device, str) else ""

    def _transmit(
        self,
        message: ControlMessage,
        to: str,
        deliver: Callable[[], bool],
        reliable: bool,
        attempt: int,
    ) -> None:
        """One transmission attempt (original send or retransmission)."""
        now = self.sim.now
        reason = (
            self.fault_model.drop_reason(now, to) if self.fault_model else None
        )
        if reliable:
            self._arm_retry(message, to, deliver, attempt)
        if reason is not None:
            self.dropped += 1
            self._c_dropped.inc()
            self.sim.journal.record(
                "ctrl-drop",
                device=self._journal_device(message),
                trace=message.body.get("trace"),
                msg=message.msg_id,
                msg_kind=message.kind,
                to=to,
                reason=reason,
                attempt=attempt,
            )
            return  # lost on the wire; the retry timer (if any) is armed

        delay = self.latency_to(to)
        if self.fault_model is not None:
            delay += self.fault_model.extra_delay()

        if not reliable:
            # No dedup, no ack: deliver directly, without building the
            # reliable arrival closure.
            self.sim.schedule(delay, deliver)
            return

        def arrive() -> None:
            seen = self._seen.setdefault(to, {})
            if message.msg_id in seen:
                # Retransmission of an already-delivered message: the
                # application layer must not see it twice.
                self.duplicates += 1
                self._c_duplicates.inc()
                self.sim.journal.record(
                    "ctrl-dup",
                    device=self._journal_device(message),
                    msg=message.msg_id,
                    msg_kind=message.kind,
                    to=to,
                )
                self._send_ack(message, to)
                return
            if deliver():
                seen[message.msg_id] = self.sim.now + self.dedup_ttl
                self._prune_dedup(seen, to)
                self._send_ack(message, to)
            # No handler: no ack -- the sender keeps retrying, which is
            # exactly right for a crashed-and-restarting controller.

        self.sim.schedule(delay, arrive)

    def _send_ack(self, message: ControlMessage, to: str) -> None:
        """The ack rides the return leg and is just as loseable."""
        now = self.sim.now
        reason = (
            self.fault_model.drop_reason(now, message.sender)
            if self.fault_model
            else None
        )
        if reason is not None:
            self.dropped += 1
            self._c_dropped.inc()
            self.sim.journal.record(
                "ctrl-drop",
                device=self._journal_device(message),
                msg=message.msg_id,
                msg_kind="ack",
                to=message.sender,
                reason=reason,
            )
            return
        delay = self.latency_to(message.sender)
        if self.fault_model is not None:
            delay += self.fault_model.extra_delay()

        def ack_arrives() -> None:
            if message.msg_id in self._acked_ids:
                return  # duplicate ack
            self.acked += 1
            self._acked_ids[message.msg_id] = self.sim.now + self.dedup_ttl
            self._prune_dedup(self._acked_ids, message.sender)
            timer = self._inflight.pop(message.msg_id, None)
            if timer is not None:
                self.sim.cancel(timer)

        self.sim.schedule(delay, ack_arrives)

    def _arm_retry(
        self,
        message: ControlMessage,
        to: str,
        deliver: Callable[[], bool],
        attempt: int,
    ) -> None:
        """Schedule the retransmission that fires unless the ack beats it."""
        old = self._inflight.pop(message.msg_id, None)
        if old is not None:
            self.sim.cancel(old)

        def on_timeout() -> None:
            self._inflight.pop(message.msg_id, None)
            if message.msg_id in self._acked_ids:
                return
            if attempt >= self.retry_policy.max_retries:
                self.giveups += 1
                self._c_giveups.inc()
                self.sim.journal.record(
                    "ctrl-giveup",
                    device=self._journal_device(message),
                    trace=message.body.get("trace"),
                    msg=message.msg_id,
                    msg_kind=message.kind,
                    to=to,
                    retries=attempt,
                )
                return
            self.retries += 1
            self._c_retries.inc()
            self.sim.journal.record(
                "ctrl-retry",
                device=self._journal_device(message),
                trace=message.body.get("trace"),
                msg=message.msg_id,
                msg_kind=message.kind,
                to=to,
                attempt=attempt + 1,
            )
            self._transmit(message, to, deliver, reliable=True, attempt=attempt + 1)

        self._inflight[message.msg_id] = self.sim.schedule(
            self.retry_policy.delay(attempt), on_timeout
        )

    # ------------------------------------------------------------------
    def broadcast(
        self,
        sender: str,
        kind: str,
        body: dict[str, Any] | None = None,
        exclude: set[str] | None = None,
        reliable: bool = False,
    ) -> int:
        """Send to every registered endpoint except ``sender``/``exclude``."""
        skip = {sender} | (exclude or set())
        targets = [name for name in self._handlers if name not in skip]
        for name in targets:
            self.send(sender, name, kind, body, reliable=reliable)
        return len(targets)
