"""The durable telemetry plane: store-and-forward, replay, dead letters.

Alerts and telemetry from a µmbox host would otherwise ride the
*unreliable* fast path of the control channel, so a partition would
simply delete the evidence -- and exactly the incidents we most need to
reconstruct would be the ones with holes in the record.
This module closes that gap with three cooperating parts:

- :class:`HostStream` (µmbox-host side): two offset lanes
  (:class:`~repro.sdn.channel.OffsetLane`, the channel's one at-least-once
  protocol) to the controller -- ``urgent`` for security alerts, ``bulk``
  for telemetry (view deltas), so enforcement evidence never queues
  behind a telemetry backlog.  The lanes number records by offset, ship
  them in order as ``stream`` batches, free fully-acked segments first,
  and re-send the unacked suffix while the controller is reachable.  The stream's own
  rule is bulk eviction: over capacity, the bulk lane drops its oldest
  *unacknowledged* records (counted and journaled, never silent) and
  advertises the hole as its replay ``base``; the urgent lane **never**
  evicts an unacknowledged record -- overflow is allowed and gauged.
- :class:`StreamConsumer` (controller side): the lanes' receiver half.
  It keeps one consumed offset per ``(host, lane)``, delivers records
  strictly in order (duplicates skipped, gaps wait for the resend to fill
  them), and returns a cumulative ack.  After a
  :class:`~repro.sdn.channel.PartitionWindow` heals, the host replays from
  the last acked offset: telemetry arrives late but in order with zero
  loss at bounded memory.
- :class:`DeadLetterQueue`: records that fail schema validation, arrive
  from a reputation-flagged host, or name a host other than the wire's
  sender are quarantined (bounded, journaled, inspectable via ``repro
  dlq``) rather than silently discarded -- the E3 poisoning-resistance
  posture applied to the telemetry plane: a malformed alert is
  *evidence*, not noise.

Identity: a batch counts only for the host that sent it, and an ack
only when it comes from the lane's receiver, so no other endpoint can
skip a lane's offsets or free its unconsumed records.

Ownership: an alert body is immutable once offered.  The host keeps it
in its record, the record's wire dict is built once and resent as is,
and the consumer hands the same body to the controller; the channel's
shallow copy of each batch envelope is the one copy on the way.

Everything here is simulated-time, seeded-deterministic, and observable:
buffer depth / replay lag / peak depth / DLQ depth are callback gauges in
the metrics registry (and therefore in the Prometheus exposition), and
every eviction, replayed batch, and quarantine is journaled.
"""

from __future__ import annotations

import json
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.sdn.channel import LaneRecord, OffsetLane, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Event, Simulator
    from repro.sdn.channel import ControlChannel, ControlMessage

__all__ = [
    "DeadLetterQueue",
    "HostStream",
    "LANE_BULK",
    "LANE_URGENT",
    "StreamConfig",
    "StreamConsumer",
    "StreamRecord",
    "VIEW_DELTA",
    "lane_for",
    "validate_record",
]

#: Alerts: never evicted while unacked.
LANE_URGENT = "urgent"
#: View deltas: bounded, oldest-unacked records may be evicted.
LANE_BULK = "bulk"
LANES = (LANE_URGENT, LANE_BULK)

#: The kind of a view delta: a device's ``state`` and ``readings`` as its
#: µmbox's telemetry tap forwards them, on the wire and in a stream record.
VIEW_DELTA = "view-delta"

_INF = float("inf")


def lane_for(kind: str) -> str:
    """Which lane a record kind rides: view deltas are bulk, alerts urgent."""
    return LANE_BULK if kind == VIEW_DELTA else LANE_URGENT


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for one host's durable stream.

    A lane's nominal capacity is ``segment_size * max_segments`` records;
    the urgent lane treats it as a soft bound (unacked records are never
    evicted), the bulk lane as a hard one (oldest unacked records drop,
    counted and journaled).  ``flush_delay`` coalesces same-instant alert
    bursts into one batch; ``retransmit_timeout`` is the lanes' fixed
    resend period and therefore the post-heal replay latency.
    """

    segment_size: int = 64
    max_segments: int = 64
    batch_max: int = 64
    flush_delay: float = 0.005
    retransmit_timeout: float = 2.0
    #: Minimum spacing of heartbeat depth journal records (the health
    #: sweep pulses much faster than anyone needs depth evidence).
    heartbeat_min_interval: float = 60.0

    def __post_init__(self) -> None:
        if self.segment_size <= 0:
            raise ValueError(f"segment_size must be positive (got {self.segment_size})")
        if self.max_segments <= 0:
            raise ValueError(f"max_segments must be positive (got {self.max_segments})")
        if self.batch_max <= 0:
            raise ValueError(f"batch_max must be positive (got {self.batch_max})")
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every comparison.
        for name in ("flush_delay", "heartbeat_min_interval"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be >= 0 (got {value})")
        if not self.retransmit_timeout > 0:
            raise ValueError(
                f"retransmit_timeout must be positive (got {self.retransmit_timeout})"
            )

    @property
    def lane_capacity(self) -> int:
        return self.segment_size * self.max_segments


@dataclass(slots=True)
class StreamRecord(LaneRecord):
    """One buffered alert: its offset, birth time, and wire body.

    ``wire`` is the record as it ships, built once: every send and resend
    of the record carries the same dict.
    """

    wire: dict[str, Any] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.wire = {"offset": self.offset, "at": self.at, "body": self.body}

    @property
    def device(self) -> str:
        return str(self.body.get("device", ""))

    @property
    def kind(self) -> str:
        return str(self.body.get("kind", ""))


# ----------------------------------------------------------------------
# Schema validation (the DLQ's admission test)
# ----------------------------------------------------------------------
_MAX_KIND_LEN = 64
_NO_DETAIL: dict[str, Any] = {}
_STR = frozenset({str})


def validate_record(wire: Any) -> str | None:
    """Why this wire record is malformed, or ``None`` when it is valid.

    The schema is the alert body :meth:`SecuredDeployment._forward_alert`
    has always produced: a non-empty device, a sane kind, a detail
    mapping with string keys, a string mbox and an optional integer
    trace.  Anything else is quarantine-worthy -- a buggy or hostile host
    must not be able to wedge the controller's ingest path.
    """
    # Each ``Mapping`` check tries ``type(x) is dict`` first: what hosts
    # send is plain dicts, and the ABC check is a call.
    if not (type(wire) is dict or isinstance(wire, Mapping)):
        return "not-a-record"
    offset = wire.get("offset")
    if not isinstance(offset, int) or isinstance(offset, bool) or offset < 1:
        return "bad-offset"
    at = wire.get("at")
    if not isinstance(at, (int, float)) or isinstance(at, bool) or not 0 <= at < _INF:
        # Non-finite too: one NaN stamp would stop the escalation window's
        # pruning for the rest of the run.
        return "bad-timestamp"
    body = wire.get("body")
    if not (type(body) is dict or isinstance(body, Mapping)):
        return "no-body"
    device = body.get("device")
    if not isinstance(device, str) or not device:
        return "bad-device"
    kind = body.get("kind")
    if not isinstance(kind, str) or not kind or len(kind) > _MAX_KIND_LEN:
        return "bad-kind"
    detail = body.get("detail", _NO_DETAIL)
    if not (type(detail) is dict or isinstance(detail, Mapping)) or not (
        _STR.issuperset(map(type, detail)) or all(isinstance(key, str) for key in detail)
    ):
        return "bad-detail"
    if not isinstance(body.get("mbox", ""), str):
        return "bad-mbox"
    trace = body.get("trace")
    if trace is not None and (not isinstance(trace, int) or isinstance(trace, bool)):
        return "bad-trace"
    return None


# ----------------------------------------------------------------------
# Host side
# ----------------------------------------------------------------------
class _Lane(OffsetLane):
    """A stream lane: an offset lane whose records carry their wire dict."""

    __slots__ = ()
    record = StreamRecord


class HostStream:
    """A µmbox host's durable store-and-forward front to the channel.

    ``offer`` buffers one alert body in the lane its kind prescribes and
    schedules one coalesced flush for both lanes (urgent first); each lane
    ships its window as a ``stream`` batch over the channel's *unreliable*
    path -- durability comes from the lane's ring, cumulative ack and
    resend loop, not from per-message retries.
    """

    def __init__(
        self,
        sim: "Simulator",
        host: str,
        channel: "ControlChannel",
        controller: str,
        config: StreamConfig | None = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.channel = channel
        self.controller = controller
        self.config = config or StreamConfig()
        cfg = self.config
        # A fixed resend period: the lane backs off by 1x.
        policy = RetryPolicy(timeout=cfg.retransmit_timeout, backoff=1.0)
        self.lanes: dict[str, _Lane] = {
            name: _Lane(
                name, cfg.segment_size, cfg.max_segments, evict_unacked=name == LANE_BULK,
                channel=channel, sender=host, receiver=controller, transmit=self._ship,
                policy=policy, window=cfg.batch_max,
            )  # fmt: skip
            for name in LANES
        }
        self.batches_sent = 0
        self.acks_received = 0
        self.skipped_unreachable = 0
        self._flush_event: "Event | None" = None
        self._last_heartbeat_at = -float("inf")
        # Acks ride the channel back to the host's own endpoint.
        channel.register(host, self._on_control)
        metrics = sim.metrics
        # ``stream`` (unique) disambiguates multiple streams; ``host`` is
        # the stable per-host label the exposition promises operators.
        self.metric_labels = {"stream": metrics.unique(host, "stream"), "host": host}
        for lane in self.lanes.values():
            labels = dict(self.metric_labels, lane=lane.name)
            metrics.gauge("stream_buffer_depth", fn=lane.depth, **labels)
            metrics.gauge("stream_replay_lag", fn=lane.replay_lag, **labels)
            metrics.gauge("stream_peak_depth", fn=lambda lane=lane: lane.peak_depth, **labels)
            lag = partial(self._ack_lag_seconds, lane)
            metrics.gauge("stream_ack_lag_seconds", fn=lag, **labels)
        metrics.gauge("stream_oldest_unacked_age", fn=self._oldest_unacked_age, **self.metric_labels)
        metrics.gauge("stream_max_fill", fn=self._max_fill, **self.metric_labels)
        self._c_evicted = metrics.counter("stream_evicted", **self.metric_labels)
        self._c_batches = metrics.counter("stream_batches", **self.metric_labels)

    def _ack_lag_seconds(self, lane: _Lane) -> float:
        """Age of the lane's oldest unacked record (0 when fully acked)."""
        record = lane.oldest_unacked()
        return 0.0 if record is None else self.sim.now - record.at

    def _oldest_unacked_age(self) -> float:
        """Age of the oldest unacked record in either lane (0 when acked)."""
        oldest: float | None = None
        for lane in self.lanes.values():
            record = lane.oldest_unacked()
            if record is not None and (oldest is None or record.at < oldest):
                oldest = record.at
        return 0.0 if oldest is None else self.sim.now - oldest

    def _max_fill(self) -> float:
        """The fullest lane's depth over its ring capacity."""
        fill = 0.0
        for lane in self.lanes.values():
            if lane.capacity:
                fill = max(fill, lane.depth() / lane.capacity)
        return fill

    # ------------------------------------------------------------------
    def offer(self, kind: str, body: dict[str, Any]) -> StreamRecord:
        """Buffer one alert body; it will ship (and re-ship) until acked."""
        lane = self.lanes[lane_for(kind)]
        record, evicted = lane.append(body, self.sim.now)
        if evicted:
            self._c_evicted.inc(evicted)
            self.sim.journal.record(
                "stream-evict",
                device=record.device,
                host=self.host,
                lane=lane.name,
                evicted=evicted,
                acked=lane.acked,
                lost_total=lane.lost,
            )
        if self._flush_event is None:
            self._flush_event = self.sim.schedule(self.config.flush_delay, self._flush)
        return record

    def outstanding(self) -> int:
        """Records not yet acknowledged by the controller, both lanes."""
        return sum(lane.replay_lag() for lane in self.lanes.values())

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        self._flush_event = None
        reachable = self.channel.reachable(self.controller)
        if not reachable:
            # Partition: keep buffering, skip the futile transmission; the
            # lanes' timers keep probing until the window heals.
            self.skipped_unreachable += 1
        for lane_name in LANES:  # urgent first: enforcement evidence leads
            lane = self.lanes[lane_name]
            lane.flush() if reachable else lane.arm()

    def _ship(self, lane: OffsetLane, batch: list[StreamRecord], resend: bool) -> None:
        self.batches_sent += 1
        self._c_batches.inc()
        self.channel.send(
            self.host,
            self.controller,
            "stream",
            {
                "host": self.host,
                "lane": lane.name,
                # The lane's replay base (max of ack watermark and highest
                # evicted offset): a fresh consumer adopts it, so a lost
                # *first* batch reads as a gap (refilled by the resend)
                # rather than a skipped prefix, and a hole left by bulk
                # eviction reads as gone (skipped) rather than a gap that
                # would livelock the resend loop.
                "base": lane.base,
                "records": [record.wire for record in batch],
            },
        )

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------
    def _on_control(self, message: "ControlMessage") -> None:
        if message.kind != "stream-ack" or message.sender != self.controller:
            # Only the lane's receiver can free what it has not consumed.
            return
        body = message.body
        lane = self.lanes.get(str(body.get("lane", "")))
        offset = body.get("offset")
        if lane is None or not isinstance(offset, int):
            return
        self.acks_received += 1
        lane.acked_to(offset)
        if lane.replay_lag() > 0 and self._flush_event is None:
            # More retained records beyond the acked window: keep draining
            # without waiting out a full retransmit timeout.
            self._flush_event = self.sim.schedule(self.config.flush_delay, self._flush)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def heartbeat(self) -> None:
        """Journal buffer depth while a backlog exists (rate-limited).

        Pulsed by the manager's health sweep: during an outage the
        journal gains periodic "the buffer is holding N records" evidence
        so an incident timeline spans the blackout instead of going dark.
        """
        if not self.outstanding():
            return
        now = self.sim.now
        if now - self._last_heartbeat_at < self.config.heartbeat_min_interval:
            return
        self._last_heartbeat_at = now
        for lane in self.lanes.values():
            lag = lane.replay_lag()
            if lag:
                oldest = lane.oldest_unacked()
                self.sim.journal.record(
                    "stream-depth",
                    host=self.host,
                    lane=lane.name,
                    depth=lane.depth(),
                    replay_lag=lag,
                    oldest_at=(oldest.at if oldest is not None else None),
                )

    def stats(self) -> dict[str, Any]:
        return {
            "host": self.host,
            "batches_sent": self.batches_sent,
            "acks_received": self.acks_received,
            "skipped_unreachable": self.skipped_unreachable,
            "lanes": {name: lane.stats() for name, lane in self.lanes.items()},
        }


# ----------------------------------------------------------------------
# Dead-letter queue
# ----------------------------------------------------------------------
class DeadLetterQueue:
    """Bounded quarantine for records the stream refused to deliver.

    Every quarantine is journaled (kind ``"dlq"``) so the refusal itself
    is durable evidence even after the bounded queue rotates; the queue
    keeps the full record bodies for operator inspection (``repro dlq``)
    and incident reconstruction.
    """

    def __init__(
        self, sim: "Simulator", name: str = "controller", max_records: int = 1024
    ) -> None:
        if max_records <= 0:
            raise ValueError(f"max_records must be positive (got {max_records})")
        self.sim = sim
        self.name = name
        self.max_records = max_records
        self._records: deque[dict[str, Any]] = deque()
        self.quarantined = 0
        self.rotated = 0
        self.by_reason: dict[str, int] = {}
        metrics = sim.metrics
        self.metric_labels = {"dlq": metrics.unique(name, "dlq")}
        metrics.gauge("dlq_depth", fn=lambda: len(self._records), **self.metric_labels)
        metrics.gauge("dlq_rotated", fn=lambda: self.rotated, **self.metric_labels)
        self._c_quarantined = metrics.counter("dlq_quarantined", **self.metric_labels)

    def __len__(self) -> int:
        return len(self._records)

    def quarantine(self, wire: Any, reason: str, host: str) -> dict[str, Any]:
        """Admit one refused record; returns the stored entry."""
        body = wire.get("body") if isinstance(wire, Mapping) else None
        body = body if isinstance(body, Mapping) else {}
        device = body.get("device")
        device = device if isinstance(device, str) else ""
        alert_kind = body.get("kind")
        alert_kind = alert_kind if isinstance(alert_kind, str) else ""
        offset = wire.get("offset") if isinstance(wire, Mapping) else None
        entry = {
            "at": self.sim.now,
            "host": host,
            "reason": reason,
            "device": device,
            "alert_kind": alert_kind,
            "offset": offset if isinstance(offset, int) else None,
            "record": _plain(wire),
        }
        self._records.append(entry)
        if len(self._records) > self.max_records:
            self._records.popleft()
            self.rotated += 1
        self.quarantined += 1
        self.by_reason[reason] = self.by_reason.get(reason, 0) + 1
        self._c_quarantined.inc()
        self.sim.journal.record(
            "dlq",
            device=device,
            host=host,
            reason=reason,
            alert_kind=alert_kind,
            offset=entry["offset"],
        )
        return entry

    # -- inspection ----------------------------------------------------
    def entries(
        self, device: str | None = None, reason: str | None = None
    ) -> list[dict[str, Any]]:
        out = []
        for entry in self._records:
            if device is not None and entry["device"] != device:
                continue
            if reason is not None and entry["reason"] != reason:
                continue
            out.append(dict(entry))
        return out

    def for_device(self, device: str) -> list[dict[str, Any]]:
        return self.entries(device=device)

    def stats(self) -> dict[str, Any]:
        return {
            "depth": len(self._records),
            "quarantined": self.quarantined,
            "rotated": self.rotated,
            "by_reason": dict(self.by_reason),
            "max_records": self.max_records,
        }

    def export_jsonl(self, path: str) -> int:
        """Dump every retained quarantine entry as JSON lines (CI artifact)."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self._records:
                fh.write(json.dumps(entry, default=str) + "\n")
                n += 1
        return n


def _plain(value: Any) -> Any:
    """A JSON-safe deep copy of an arbitrary (possibly hostile) payload."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


# ----------------------------------------------------------------------
# Controller side
# ----------------------------------------------------------------------
class StreamConsumer:
    """The controller's end of the durable stream: in-order consumption.

    ``deliver(body, sent_at)`` is the controller's record ingress
    (:meth:`IoTSecController._on_stream_record`), so replayed alerts and
    view deltas take the same path as live ones -- stamped with their
    *birth* time, which is what makes post-outage timelines honest.

    It is the receiver half of each host's two lanes: one consumed
    offset per ``(host, lane)`` -- the lane's watermark -- adopted from the
    host's replay base on first contact.  A batch is trusted only from the
    host it names (``message.sender``); anything else is quarantined.
    Exactly-once holds per consumer incarnation (offsets are in-memory
    controller state); across a controller crash + failover the stream
    degrades to at-least-once.
    """

    def __init__(
        self,
        sim: "Simulator",
        channel: "ControlChannel",
        name: str,
        deliver: Callable[[dict[str, Any], float], None],
        dlq: DeadLetterQueue,
        host_trust: Callable[[str], float] | None = None,
        trust_threshold: float = 0.25,
        replay_age: float = 5.0,
    ) -> None:
        if not replay_age >= 0:  # NaN would silently turn the summaries off
            raise ValueError(f"replay_age must be >= 0 (got {replay_age})")
        self.sim = sim
        self.channel = channel
        self.name = name
        self.deliver = deliver
        self.dlq = dlq
        self.host_trust = host_trust
        self.trust_threshold = trust_threshold
        self.replay_age = replay_age
        #: The receiver watermark per ``(host, lane)``; absent until
        #: first contact.
        self._marks: dict[tuple[str, str], int] = {}
        self.flagged: set[str] = set()
        self.delivered = 0
        self.duplicates = 0
        self.gaps = 0
        #: Offsets skipped because the host evicted them under pressure
        #: (its advertised base moved past our cursor): known-lost, never
        #: silently -- the host journaled each eviction when it happened.
        self.skipped_unavailable = 0
        self.batches = 0
        self.replayed_batches = 0
        metrics = sim.metrics
        self.metric_labels = {"consumer": metrics.unique(name, "consumer")}
        self._c_delivered = metrics.counter("stream_delivered", **self.metric_labels)
        self._c_duplicates = metrics.counter("stream_duplicates", **self.metric_labels)
        self._c_gaps = metrics.counter("stream_gaps", **self.metric_labels)

    # ------------------------------------------------------------------
    def flag_host(self, host: str) -> None:
        """Reputation decision: quarantine everything this host sends."""
        self.flagged.add(host)

    def _host_flagged(self, host: str) -> bool:
        if host in self.flagged:
            return True
        if self.host_trust is not None:
            return self.host_trust(host) < self.trust_threshold
        return False

    def offset_of(self, host: str, lane: str) -> int:
        return self._marks.get((host, lane), 0)

    # ------------------------------------------------------------------
    def on_batch(self, message: "ControlMessage") -> None:
        """Consume one stream batch in order; ack the new watermark."""
        body = message.body
        host = body.get("host")
        lane = body.get("lane")
        records = body.get("records")
        if (
            not isinstance(host, str)
            or not host
            or lane not in LANES
            or not isinstance(records, list)
        ):
            self.dlq.quarantine(
                {"body": {}, "offset": None, "batch": _plain(body)},
                "malformed-batch",
                host if isinstance(host, str) else "?",
            )
            return
        if host != message.sender:
            # The body names a host the wire did not carry it from: a
            # forged base or record would skip or shadow the real lane.
            self.dlq.quarantine(
                {"body": {}, "offset": None, "batch": _plain(body)},
                "host-mismatch",
                message.sender,
            )
            return
        self.batches += 1
        key = (host, lane)
        consumed = self._marks.get(key)
        raw_base = body.get("base")
        base = (
            raw_base
            if isinstance(raw_base, int)
            and not isinstance(raw_base, bool)
            and raw_base >= 0
            else None
        )
        if base is not None and consumed is not None and base > consumed:
            # The host declared offsets <= base unavailable (evicted under
            # pressure, already journaled host-side): waiting for them
            # would livelock the resend loop, so skip the hole and count.
            self.skipped_unavailable += base - consumed
            consumed = base
        if base is not None and consumed is None:
            # First contact (fresh controller after failover, or a brand-
            # new host): adopt the host's replay base.  Everything at or
            # below it was consumed by the previous incarnation or
            # evicted; anything above it that this batch skips is a *gap*
            # the host must resend -- without the base, a dropped first
            # batch would silently skip the stream's prefix.
            consumed = base
        flagged = self._host_flagged(host)
        oldest_at: float | None = None
        consumed_before = consumed
        for wire in records:
            # An exact dict first: the ``Mapping`` check is an ABC call.
            mapping = type(wire) is dict or isinstance(wire, Mapping)
            offset = wire.get("offset") if mapping else None
            if not isinstance(offset, int) or isinstance(offset, bool) or offset < 1:
                # No usable offset: quarantine, but the cursor cannot
                # advance past a record it cannot place.
                self.dlq.quarantine(wire, "bad-offset", host)
                continue
            if consumed is None:
                # Hand-crafted batch without a replay base: fall back to
                # adopting the first offset seen.
                consumed = offset - 1
            if offset <= consumed:
                self.duplicates += 1
                self._c_duplicates.inc()
                continue
            if offset > consumed + 1:
                # A hole: stop here and let go-back-N refill it.  Acking
                # the old watermark below is what triggers the resend.
                self.gaps += 1
                self._c_gaps.inc()
                break
            reason = "reputation" if flagged else validate_record(wire)
            consumed = offset  # poison records must not wedge the lane
            if reason is not None:
                self.dlq.quarantine(wire, reason, host)
                continue
            at = wire.get("at")
            sent_at = float(at) if isinstance(at, (int, float)) else message.sent_at
            if oldest_at is None:
                oldest_at = sent_at
            self.delivered += 1
            self._c_delivered.inc()
            self.deliver(wire["body"], sent_at)  # shared, never edited
        if consumed is not None:
            self._marks[key] = consumed
        if (
            oldest_at is not None
            and self.sim.now - oldest_at >= self.replay_age
            and consumed is not None
        ):
            # Post-outage catch-up: summarize the replayed batch so the
            # journal shows late-but-in-order delivery, not a silent gap.
            self.replayed_batches += 1
            self.sim.journal.record(
                "stream-replay",
                host=host,
                lane=lane,
                base=(consumed_before if consumed_before is not None else 0) + 1,
                consumed=consumed,
                oldest_at=oldest_at,
                lag=self.sim.now - oldest_at,
            )
        # Cumulative ack (unreliable, loseable: a lost ack just costs a
        # retransmission, which offset dedup absorbs).
        self.channel.send(
            self.name,
            host,
            "stream-ack",
            {"lane": lane, "offset": consumed or 0},
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "gaps": self.gaps,
            "skipped_unavailable": self.skipped_unavailable,
            "replayed_batches": self.replayed_batches,
            "flagged_hosts": sorted(self.flagged),
            "offsets": {
                f"{host}/{lane}": consumed for (host, lane), consumed in sorted(self._marks.items())
            },
        }
