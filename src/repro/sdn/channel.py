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
- the **offset lane** (:class:`OffsetLane`), the one at-least-once
  protocol.  A lane is keyed by the wire's ``(sender, receiver)``.  The
  sender keeps a ring of records numbered by offset and a cumulative-ack
  watermark, and re-sends the unacked suffix -- one window per tick, at
  backoff capped at :data:`BACKOFF_CAP` -- while the receiver is
  reachable.  There is no give-up.  The receiver keeps one watermark: it
  delivers in offset order, and a duplicate is re-acked, not delivered.

``send(..., reliable=True)`` and ``call(..., reliable=True)`` append to
the lane of ``(sender, to)``: alerts under ``reliable_control``, the
consistent updater's install/flip messages, HA checkpoints and deltas and
federation signature reports ride it, and each reaches its handler exactly
once, in send order.  The durable telemetry stream
(:mod:`repro.obs.stream`) is two more lanes per host that ship their
records as ``stream`` batches over the unreliable path.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Event, Simulator

_MSG_IDS = itertools.count(1)
_INF = float("inf")

#: Ceiling of a lane's resend backoff, in seconds: once a partition heals,
#: the unacked suffix goes out within this long.
BACKOFF_CAP = 2.0
#: Records per segment, segments per ring and records per resend of a
#: channel lane.  The ring bound is soft: an unacked record is never
#: dropped, so a lane past it counts ``overflow`` instead.
WINDOW = 64


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
    """How soon a lane re-sends its unacked suffix.

    The first resend fires ``timeout`` after the lane last heard an ack
    (or last sent from idle); each further one backs off by ``backoff``x,
    up to :data:`BACKOFF_CAP` (or ``timeout``, if that is longer).  A lane
    never waits less than two round trips to its receiver, so a healthy
    message is not resent however slow the link.
    """

    timeout: float = 0.05
    backoff: float = 2.0

    def delay(self, attempt: int) -> float:
        """Wait after resend number ``attempt`` (0: before the first)."""
        cap = max(self.timeout, BACKOFF_CAP)
        return min(self.timeout * self.backoff ** min(attempt, 64), cap)


@dataclass(slots=True)
class LaneRecord:
    """One record of an offset lane: its offset, birth time and payload."""

    offset: int
    at: float
    body: Any


class OffsetLane:
    """One offset lane's sender half: a segment ring and its resend loop.

    Segments hold records in offset order.  ``ack`` advances the
    cumulative watermark and frees fully-acked front segments; ``append``
    enforces the capacity bound.  Past it, a lane built with
    ``evict_unacked`` drops its oldest unacked front segment (returned to
    the caller for journaling; :attr:`base` then tells the receiver not to
    wait for it), and any other lane keeps the record and counts
    ``overflow``.

    A lane bound to a channel (``channel``, ``receiver``, ``transmit``)
    also drives delivery.  :meth:`flush` hands the next window past what
    is in flight to ``transmit(lane, records, resend)``.  While records
    are unacked one timer runs: when it finds the lane quiet for the
    policy's delay, it goes back to the watermark and re-sends one window
    -- if :meth:`ControlChannel.reachable` says the receiver can hear it --
    and backs off.  Ack progress resets the backoff; a fully acked lane
    cancels its timer and schedules nothing.
    """

    __slots__ = (
        "name", "segment_size", "max_segments", "evict_unacked", "_segments", "_retained",
        "next_offset", "acked", "sent_high", "appended", "lost", "overflow", "peak_depth",
        "evicted_high", "channel", "sender", "receiver", "transmit", "policy", "window",
        "attempt", "quiet_since", "timer",
    )  # fmt: skip

    #: The record type ``append`` builds.
    record: type = LaneRecord

    def __init__(
        self,
        name: str,
        segment_size: int = WINDOW,
        max_segments: int = WINDOW,
        evict_unacked: bool = False,
        *,
        channel: "ControlChannel | None" = None,
        sender: str = "",
        receiver: str = "",
        transmit: Callable[["OffsetLane", list[Any], bool], None] | None = None,
        policy: RetryPolicy | None = None,
        window: int = WINDOW,
    ) -> None:
        self.name = name
        self.segment_size = segment_size
        self.max_segments = max_segments
        self.evict_unacked = evict_unacked
        self._segments: deque[list[Any]] = deque([[]])
        #: Records across all segments, kept in step wherever a segment is
        #: appended to, freed or evicted (``append`` reads it per record).
        self._retained = 0
        #: ``acked``: the cumulative ack watermark (every offset <= it was
        #: consumed); ``sent_high``: the highest offset already in flight;
        #: ``lost``: unacked records evicted under pressure, the highest of
        #: them ``evicted_high``; ``overflow``: appends retained past
        #: nominal capacity.
        self.next_offset, self.acked, self.sent_high, self.appended = 1, 0, 0, 0
        self.lost = self.overflow = self.peak_depth = self.evicted_high = 0
        self.channel, self.sender, self.receiver = channel, sender, receiver
        self.transmit, self.window = transmit, window
        self.policy = policy or RetryPolicy()
        self.attempt, self.quiet_since = 0, 0.0
        self.timer: "Event | None" = None

    # -- geometry ------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.segment_size * self.max_segments

    @property
    def base(self) -> int:
        """The replay base: no offset at or below it can ever be resent."""
        return max(self.acked, self.evicted_high)

    def depth(self) -> int:
        """Retained records (acked ones linger until their segment frees)."""
        return self._retained

    def replay_lag(self) -> int:
        """Records appended but not yet acknowledged downstream."""
        return (self.next_offset - 1) - self.acked

    # -- writing -------------------------------------------------------
    def append(self, body: Any, at: float) -> tuple[Any, int]:
        """Buffer one record; returns ``(record, evicted_unacked_count)``."""
        record = self.record(self.next_offset, at, body)
        self.next_offset += 1
        self.appended += 1
        head = self._segments[-1]
        if len(head) >= self.segment_size:
            head = [record]
            self._segments.append(head)
        else:
            head.append(record)
        self._retained += 1
        evicted = self._enforce_bound() if len(self._segments) > self.max_segments else 0
        if self._retained > self.peak_depth:
            self.peak_depth = self._retained
        return record, evicted

    def _enforce_bound(self) -> int:
        """Free/evict front segments until the ring fits; count casualties."""
        evicted_unacked = 0
        while len(self._segments) > self.max_segments:
            front = self._segments[0]
            if front[-1].offset > self.acked:
                if not self.evict_unacked:
                    self.overflow += 1
                    break
                unacked = sum(1 for r in front if r.offset > self.acked)
                evicted_unacked += unacked
                self.lost += unacked
                self.evicted_high = max(self.evicted_high, front[-1].offset)
            self._segments.popleft()
            self._retained -= len(front)
        return evicted_unacked

    # -- acknowledgement -----------------------------------------------
    def ack(self, offset: int) -> int:
        """Advance the cumulative watermark and free covered segments.

        Returns how many records the ack newly covers (0 for a stale or
        duplicate ack, which changes nothing).
        """
        if offset <= self.acked:
            return 0
        before = self.acked
        self.acked = min(offset, self.next_offset - 1)
        if self.sent_high < self.acked:
            self.sent_high = self.acked
        while len(self._segments) > 1:
            front = self._segments[0]
            if front and front[-1].offset > self.acked:
                break
            self._segments.popleft()
            self._retained -= len(front)
        head = self._segments[0]
        if len(self._segments) == 1 and head and head[-1].offset <= self.acked:
            # Everything acked: recycle the sole segment.
            self._retained -= len(head)
            head.clear()
        return self.acked - before

    # -- reading -------------------------------------------------------
    def window_after(self, start: int, limit: int) -> list[Any]:
        """Up to ``limit`` consecutive retained records with offset > start.

        A segment's offsets are contiguous (records append in offset order
        and leave only with their whole segment), so the first record past
        ``start`` is found by index, not by scan.
        """
        out: list[Any] = []
        for segment in self._segments:
            if not segment or segment[-1].offset <= start:
                continue
            first = max(start + 1 - segment[0].offset, 0)
            out += segment[first : first + limit - len(out)]
            if len(out) >= limit:
                break
        return out

    def oldest_unacked(self) -> Any:
        for segment in self._segments:
            for record in segment:
                if record.offset > self.acked:
                    return record
        return None

    def stats(self) -> dict[str, Any]:
        return {
            "lane": self.name,
            "appended": self.appended,
            "acked": self.acked,
            "base": self.base,
            "depth": self.depth(),
            "replay_lag": self.replay_lag(),
            "peak_depth": self.peak_depth,
            "lost": self.lost,
            "overflow": self.overflow,
            "capacity": self.capacity,
        }

    # -- the resend loop -------------------------------------------------
    def flush(self, resend: bool = False) -> None:
        """Transmit the next window past what is in flight, then arm.

        With ``resend`` the window starts at the watermark: go-back-N.
        """
        start = self.acked if resend else self.sent_high
        batch = self.window_after(start, self.window)
        if batch:
            self.sent_high = batch[-1].offset
            self.transmit(self, batch, resend)
        self.arm()

    def arm(self) -> None:
        """Start the resend timer, unless it runs or nothing is unacked."""
        if self.timer is None and self.acked < self.next_offset - 1:
            channel = self.channel
            self.quiet_since = channel.sim.now
            self.timer = channel.sim.schedule(self._wait(), self._tick)

    def acked_to(self, offset: int) -> int:
        """An ack from the receiver arrived: advance, and settle the timer."""
        covered = self.ack(offset)
        if covered:
            self.attempt = 0
            if self.acked >= self.next_offset - 1:
                if self.timer is not None:
                    self.channel.sim.cancel(self.timer)
                    self.timer = None
            else:
                self.quiet_since = self.channel.sim.now
        return covered

    def _wait(self) -> float:
        # Never under two round trips: no healthy record is resent.
        return max(self.policy.delay(self.attempt), 4 * self.channel.latency_to(self.receiver))

    def _tick(self, due: bool = False) -> None:
        self.timer = None
        if self.acked >= self.next_offset - 1:
            return
        channel = self.channel
        sim = channel.sim
        wait = 0.0 if due else self.quiet_since + self._wait() - sim.now
        if wait <= 0:
            # Quiet for a full timeout: presume the window lost.
            self.attempt += 1
            if channel.reachable(self.receiver):
                self.flush(resend=True)
                return
            self.quiet_since = sim.now
            wait = self._wait()
        self.timer = sim.schedule(wait, self._tick)

    def resend_now(self) -> None:
        """Go back to the watermark now, without waiting out the timer."""
        if self.timer is not None:
            self.channel.sim.cancel(self.timer)
            self._tick(due=True)


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
    ) -> None:
        if not latency >= 0:  # NaN too: ``send`` pushes ``now + latency`` unchecked
            raise ValueError(f"latency must be >= 0 (got {latency})")
        self.sim = sim
        self.latency = latency
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_model: FaultModel | None = None
        self._handlers: dict[str, Callable[[ControlMessage], None]] = {}
        self._latency_override: dict[str, float] = {}
        #: Sender halves of the reliable lanes, by ``(sender, receiver)``.
        self._lanes: dict[tuple[str, str], OffsetLane] = {}
        #: Receiver halves: one delivered-up-to offset per lane.
        self._marks: dict[tuple[str, str], int] = {}
        self.sent = 0
        self.delivered = 0
        self.undeliverable = 0
        self.dropped = 0
        self.retries = 0
        #: Always 0 -- a lane never gives up.  Kept for
        #: ``benchmarks/ledger/``, which reads it.
        self.giveups = 0
        self.duplicates = 0
        self.acked = 0
        metrics = sim.metrics
        self.metric_labels = {"channel": metrics.unique("control")}
        labels = self.metric_labels
        metrics.gauge("channel_sent", fn=lambda: self.sent, **labels)
        metrics.gauge("channel_delivered", fn=lambda: self.delivered, **labels)
        metrics.gauge("channel_undeliverable", fn=lambda: self.undeliverable, **labels)
        self._c_dropped = metrics.counter("channel_dropped", **labels)
        self._c_retries = metrics.counter("channel_retries", **labels)
        self._c_duplicates = metrics.counter("channel_duplicates", **labels)

    def register(self, name: str, handler: Callable[[ControlMessage], None]) -> None:
        """Register (or replace) the message handler for endpoint ``name``.

        Lanes holding unacked records for ``name`` (sent while it was down:
        a restarted or failed-over controller) re-send them at once.
        """
        self._handlers[name] = handler
        for lane in self._lanes.values():
            if lane.receiver == name:
                lane.resend_now()

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def set_latency_to(self, name: str, latency: float) -> None:
        """Override the one-way latency for messages *to* ``name``."""
        if not latency >= 0:
            raise ValueError(f"latency must be >= 0 (got {latency})")
        self._latency_override[name] = latency

    def latency_to(self, name: str) -> float:
        return self._latency_override.get(name, self.latency)

    def unacked(self) -> int:
        """Reliable records not yet acknowledged, over every lane."""
        return sum(lane.replay_lag() for lane in self._lanes.values())

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
        can consult this *before* transmitting -- every lane does, so a
        multi-hour outage costs timer ticks instead of events and journal
        space on doomed sends.  Random per-transmission drops are not
        knowable in advance and are deliberately not reflected here.
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

        With ``reliable=True`` the message rides the lane of ``(sender,
        to)``: its handler observes it exactly once, in send order, however
        long the receiver is partitioned or unregistered.
        """
        sim = self.sim
        # The body's one copy on its way to the receiver (the isolation
        # boundary): shallow, so the values it holds are shared, and the
        # layers on either side treat them as immutable.
        message = ControlMessage(kind, sender, dict(body or {}), sim.now, next(_MSG_IDS))
        self.sent += 1
        if reliable:
            self._append(sender, to, message, None)
        elif self.fault_model is None:
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
        else:
            self._transmit(message, to, partial(self._deliver, to, message))
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
        message still rides the wire -- fault model and, with ``reliable``,
        the lane of ``(sender, to)``, so ``fn`` executes exactly once, in
        call order, however many resends the fault pattern forces.
        """
        message = ControlMessage(kind, sender, {}, self.sim.now, next(_MSG_IDS))
        self.sent += 1
        if reliable:
            self._append(sender, to, message, fn)
            return message

        def deliver_fn() -> bool:
            self.delivered += 1
            fn()
            return True

        self._transmit(message, to, deliver_fn)
        return message

    # ------------------------------------------------------------------
    # The wire
    # ------------------------------------------------------------------
    def _journal_device(self, message: ControlMessage) -> str:
        device = message.body.get("device", "")
        return device if isinstance(device, str) else ""

    def _lost(self, message: ControlMessage, to: str, msg_kind: str, attempt: int) -> bool:
        """Roll the fault model for one transmission to ``to``; journal a loss."""
        model = self.fault_model
        reason = model.drop_reason(self.sim.now, to) if model is not None else None
        if reason is None:
            return False
        self.dropped += 1
        self._c_dropped.inc()
        self.sim.journal.record(
            "ctrl-drop",
            device=self._journal_device(message),
            trace=message.body.get("trace"),
            msg=message.msg_id,
            msg_kind=msg_kind,
            to=to,
            reason=reason,
            attempt=attempt,
        )
        return True

    def _delay(self, to: str) -> float:
        model = self.fault_model
        delay = self.latency_to(to)
        return delay + model.extra_delay() if model is not None else delay

    def _transmit(
        self, message: ControlMessage, to: str, deliver: Callable[[], bool]
    ) -> None:
        """One fire-and-forget transmission through the fault model."""
        if not self._lost(message, to, message.kind, 0):
            self.sim.schedule(self._delay(to), deliver)

    def _append(
        self, sender: str, to: str, message: ControlMessage, fn: Callable[[], None] | None
    ) -> None:
        """Add one reliable message to its lane and send what can go now."""
        key = (sender, to)
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = OffsetLane(
                f"{sender}->{to}",
                channel=self,
                sender=sender,
                receiver=to,
                transmit=self._transmit_window,
                policy=self.retry_policy,
            )
        lane.append((message, fn), self.sim.now)
        if self.reachable(to):
            lane.flush()
        else:
            lane.arm()

    def _transmit_window(
        self, lane: OffsetLane, records: list[LaneRecord], resend: bool
    ) -> None:
        """One lane transmission: a window of consecutive records."""
        to = lane.receiver
        first = records[0].body[0]
        if resend:
            self.retries += 1
            self._c_retries.inc()
            self.sim.journal.record(
                "ctrl-retry",
                device=self._journal_device(first),
                trace=first.body.get("trace"),
                msg=first.msg_id,
                msg_kind=first.kind,
                to=to,
                attempt=lane.attempt,
                records=len(records),
            )
        if not self._lost(first, to, first.kind, lane.attempt):
            self.sim.schedule(self._delay(to), self._arrive, lane, records)

    def _arrive(self, lane: OffsetLane, records: list[LaneRecord]) -> None:
        """The receiver half: deliver in offset order, then ack."""
        key = (lane.sender, lane.receiver)
        mark = self._marks.get(key, 0)
        confirmed = False
        for record in records:
            offset = record.offset
            if offset <= mark:
                # A resend of a record already delivered: re-ack it.
                self.duplicates += 1
                self._c_duplicates.inc()
                confirmed = True
                continue
            if offset > mark + 1:
                break  # a hole: the go-back-N resend refills it
            message, fn = record.body
            handler = self._handlers.get(lane.receiver) if fn is None else fn
            if handler is None:
                # Nobody registered (a crashed controller): no progress,
                # the lane keeps re-sending until a successor registers.
                self.undeliverable += 1
                break
            mark = self._marks[key] = offset
            confirmed = True
            self.delivered += 1
            if fn is None:
                handler(message)
            else:
                fn()
        if confirmed:
            self._ack(lane, records[0].body[0], mark)

    def _ack(self, lane: OffsetLane, message: ControlMessage, mark: int) -> None:
        """The cumulative ack rides the return leg and is just as loseable.

        It reaches the lane directly, not through a handler: a sender needs
        no registered endpoint to hear its acks.
        """
        if not self._lost(message, lane.sender, "ack", lane.attempt):
            self.sim.schedule(self._delay(lane.sender), self._ack_arrives, lane, mark)

    def _ack_arrives(self, lane: OffsetLane, mark: int) -> None:
        self.acked += lane.acked_to(mark)
        if lane.sent_high < lane.next_offset - 1 and self.reachable(lane.receiver):
            lane.flush()  # a backlog longer than one window keeps draining

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
