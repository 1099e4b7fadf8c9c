"""The durable telemetry plane: store-and-forward, replay, dead letters.

PRs 4-5 made the fault models honest -- and with them an honest problem:
alerts and telemetry ride the *unreliable* fast path of the control
channel, so a partition or shed window simply deletes the evidence, and
exactly the incidents we most need to reconstruct are the ones with holes
in the record.  This module closes that gap with three cooperating parts:

- :class:`HostStream` (µmbox-host side): a durable, bounded
  store-and-forward buffer in front of the lossy channel.  Records are
  appended to per-lane segment rings (``urgent`` for security alerts,
  ``bulk`` for telemetry, so enforcement evidence never queues behind a
  telemetry backlog), assigned monotonically increasing *offsets*, and
  shipped downstream in order as batches.  Eviction is watermark-aware:
  fully-acknowledged segments are freed first, the bulk lane may drop its
  oldest *unacknowledged* records when over capacity (counted and
  journaled, never silent), and the urgent lane **never** evicts an
  unacknowledged record -- overflow is allowed, gauged, and bounded in
  practice by the ack watermark advancing.
- :class:`StreamConsumer` (controller side): tracks one *consumed* offset
  per ``(host, lane)``, delivers records strictly in order (duplicates
  skipped, gaps wait for the retransmission to fill them), and returns a
  cumulative ack.  After a :class:`~repro.sdn.channel.PartitionWindow`
  heals, the host replays from the last acked offset: telemetry arrives
  late but in order with zero loss at bounded memory.  While the ingest
  queue sheds, bulk records are *deferred to the buffer* -- the consumer
  stops consuming (no ack) instead of dropping, and the host replays them
  once shedding ends.
- :class:`DeadLetterQueue`: records that fail schema validation or arrive
  from a reputation-flagged host are quarantined (bounded, journaled,
  inspectable via ``repro dlq``) rather than silently discarded -- the E3
  poisoning-resistance posture applied to the telemetry plane: a
  malformed alert is *evidence*, not noise.

Replay protocol (go-back-N over the unreliable fast path):

- The host sends batches of consecutive unacked records and remembers the
  highest offset in flight (``sent_high``).  Acks are cumulative and ride
  the same lossy wire; a lost ack just means a retransmission, which the
  consumer's offset dedup makes harmless.
- On retransmit timeout with no ack progress, ``sent_high`` falls back to
  the ack watermark and the window resends from there.
- Partition awareness: while :meth:`ControlChannel.reachable` says the
  controller is unreachable, flushes are skipped entirely (buffering
  continues) -- a multi-hour outage costs retry-timer ticks, not a
  journal full of drop records.

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
from typing import TYPE_CHECKING, Any, Callable

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
    "lane_for",
    "validate_record",
]

#: Security alerts (enforcing/monitor class): never evicted while unacked.
LANE_URGENT = "urgent"
#: Routine telemetry: bounded, oldest-unacked records may be shed.
LANE_BULK = "bulk"
LANES = (LANE_URGENT, LANE_BULK)

_INF = float("inf")


def lane_for(kind: str) -> str:
    """Which lane an alert kind rides: telemetry is bulk, the rest urgent."""
    return LANE_BULK if kind == "telemetry" else LANE_URGENT


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for one host's durable stream.

    A lane's nominal capacity is ``segment_size * max_segments`` records;
    the urgent lane treats it as a soft bound (unacked records are never
    evicted), the bulk lane as a hard one (oldest unacked records drop,
    counted and journaled).  ``flush_delay`` coalesces same-instant alert
    bursts into one batch; ``retransmit_timeout`` paces the go-back-N
    resend loop and therefore the post-heal replay latency.
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
class StreamRecord:
    """One buffered alert: its offset, birth time, and wire body.

    ``wire`` is the record as it ships, built once: every send and resend
    of the record carries the same dict.
    """

    offset: int
    at: float
    body: dict[str, Any]
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
class _Lane:
    """One lane's segment ring: offsets, ack watermark, bounded eviction.

    Segments hold :class:`StreamRecord` objects in offset order.  ``ack``
    advances the cumulative watermark and frees fully-acked front
    segments (watermark-aware eviction); ``append`` enforces the capacity
    bound -- for the bulk lane by dropping the oldest *unacked* front
    segment (returned to the caller for journaling), for the urgent lane
    never (overflow is counted instead: losing enforcement evidence is
    worse than exceeding a soft memory bound).
    """

    __slots__ = (
        "name",
        "segment_size",
        "max_segments",
        "evict_unacked",
        "_segments",
        "_retained",
        "next_offset",
        "acked",
        "sent_high",
        "appended",
        "lost",
        "overflow",
        "peak_depth",
        "evicted_high",
    )

    def __init__(
        self, name: str, segment_size: int, max_segments: int, evict_unacked: bool
    ) -> None:
        self.name = name
        self.segment_size = segment_size
        self.max_segments = max_segments
        self.evict_unacked = evict_unacked
        self._segments: deque[list[StreamRecord]] = deque([[]])
        #: Records across all segments, kept in step wherever a segment is
        #: appended to, freed or evicted (``append`` reads it per record).
        self._retained = 0
        self.next_offset = 1
        #: Cumulative ack watermark: every offset <= acked was consumed.
        self.acked = 0
        #: Go-back-N high-water mark of offsets already in flight.
        self.sent_high = 0
        self.appended = 0
        #: Unacked records evicted under pressure (bulk lane only).
        self.lost = 0
        #: Appends past nominal capacity that were retained anyway
        #: (urgent lane only -- unacked evidence is never dropped).
        self.overflow = 0
        self.peak_depth = 0
        #: Highest offset ever evicted under pressure (bulk lane): the
        #: replay base advertised downstream is ``max(acked, this)`` --
        #: "everything at or below is consumed or gone, don't wait for it".
        self.evicted_high = 0

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
    def append(self, body: dict[str, Any], at: float) -> tuple[StreamRecord, int]:
        """Buffer one record; returns ``(record, evicted_unacked_count)``."""
        record = StreamRecord(offset=self.next_offset, at=at, body=body)
        self.next_offset += 1
        self.appended += 1
        head = self._segments[-1]
        if len(head) >= self.segment_size:
            head = [record]
            self._segments.append(head)
        else:
            head.append(record)
        self._retained += 1
        evicted = self._enforce_bound()
        if self._retained > self.peak_depth:
            self.peak_depth = self._retained
        return record, evicted

    def _enforce_bound(self) -> int:
        """Free/evict front segments until the ring fits; count casualties."""
        evicted_unacked = 0
        while len(self._segments) > self.max_segments:
            front = self._segments[0]
            if front and front[-1].offset <= self.acked:
                self._segments.popleft()  # fully consumed: plain free
                self._retained -= len(front)
                continue
            if not self.evict_unacked:
                # Urgent lane: retained past capacity rather than losing
                # unacknowledged enforcement evidence.
                self.overflow += 1
                break
            self._segments.popleft()
            self._retained -= len(front)
            unacked = sum(1 for r in front if r.offset > self.acked)
            evicted_unacked += unacked
            self.lost += unacked
            if front and front[-1].offset > self.evicted_high:
                self.evicted_high = front[-1].offset
        return evicted_unacked

    # -- acknowledgement -----------------------------------------------
    def ack(self, offset: int) -> None:
        """Advance the cumulative watermark and free covered segments."""
        if offset <= self.acked:
            return  # duplicate / stale ack: idempotent
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

    # -- reading -------------------------------------------------------
    def window_after(self, start: int, limit: int) -> list[StreamRecord]:
        """Up to ``limit`` consecutive retained records with offset > start.

        A segment's offsets are contiguous (records append in offset order
        and leave only with their whole segment), so the first record past
        ``start`` is found by index, not by scan.
        """
        out: list[StreamRecord] = []
        for segment in self._segments:
            if not segment or segment[-1].offset <= start:
                continue
            first = max(start + 1 - segment[0].offset, 0)
            out += segment[first : first + limit - len(out)]
            if len(out) >= limit:
                break
        return out

    def oldest_unacked(self) -> StreamRecord | None:
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


class HostStream:
    """A µmbox host's durable store-and-forward front to the channel.

    ``offer`` buffers one alert body in the lane its kind prescribes and
    schedules a coalesced flush; the flush ships one in-order batch per
    lane over the channel's *unreliable* fast path (durability comes from
    the buffer + ack + replay, not from per-message retries) and a
    retransmit timer drives go-back-N until the ack watermark catches up.
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
        self.lanes: dict[str, _Lane] = {
            LANE_URGENT: _Lane(
                LANE_URGENT, cfg.segment_size, cfg.max_segments, evict_unacked=False
            ),
            LANE_BULK: _Lane(
                LANE_BULK, cfg.segment_size, cfg.max_segments, evict_unacked=True
            ),
        }
        self.batches_sent = 0
        self.acks_received = 0
        self.skipped_unreachable = 0
        self._flush_event: "Event | None" = None
        self._retx_event: "Event | None" = None
        self._last_heartbeat_at = -float("inf")
        # Acks ride the channel back to the host's own endpoint.
        channel.register(host, self._on_control)
        metrics = sim.metrics
        # ``stream`` (unique) disambiguates multiple streams; ``host`` is
        # the stable per-host label the exposition promises operators.
        self.metric_labels = {"stream": metrics.unique(host), "host": host}
        for lane in self.lanes.values():
            labels = dict(self.metric_labels, lane=lane.name)
            metrics.gauge("stream_buffer_depth", fn=lane.depth, **labels)
            metrics.gauge("stream_replay_lag", fn=lane.replay_lag, **labels)
            metrics.gauge(
                "stream_peak_depth", fn=lambda lane=lane: lane.peak_depth, **labels
            )
            metrics.gauge(
                "stream_ack_lag_seconds",
                fn=lambda lane=lane: self._ack_lag_seconds(lane),
                **labels,
            )
        self._c_evicted = metrics.counter("stream_evicted", **self.metric_labels)
        self._c_batches = metrics.counter("stream_batches", **self.metric_labels)

    def _ack_lag_seconds(self, lane: "_Lane") -> float:
        """Age of the lane's oldest unacked record (0 when fully acked)."""
        record = lane.oldest_unacked()
        return 0.0 if record is None else self.sim.now - record.at

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
        self._schedule_flush()
        return record

    def outstanding(self) -> int:
        """Records not yet acknowledged by the controller, both lanes."""
        return sum(lane.replay_lag() for lane in self.lanes.values())

    # ------------------------------------------------------------------
    # Shipping
    # ------------------------------------------------------------------
    def _schedule_flush(self) -> None:
        if self._flush_event is None:
            self._flush_event = self.sim.schedule(self.config.flush_delay, self._flush)

    def _flush(self) -> None:
        self._flush_event = None
        if not self.channel.reachable(self.controller):
            # Partition: keep buffering, skip the futile transmission.
            # The retransmit timer keeps probing until the window heals.
            self.skipped_unreachable += 1
            self._arm_retransmit()
            return
        cfg = self.config
        sent_any = False
        for lane_name in LANES:  # urgent first: enforcement evidence leads
            lane = self.lanes[lane_name]
            start = max(lane.acked, lane.sent_high)
            batch = lane.window_after(start, cfg.batch_max)
            if not batch:
                continue
            lane.sent_high = batch[-1].offset
            self.batches_sent += 1
            self._c_batches.inc()
            sent_any = True
            self.channel.send(
                self.host,
                self.controller,
                "stream",
                {
                    "host": self.host,
                    "lane": lane.name,
                    # The lane's replay base (max of ack watermark and
                    # highest evicted offset): a fresh consumer adopts it,
                    # so a lost *first* batch reads as a gap (refilled by
                    # go-back-N) rather than a skipped prefix, and a hole
                    # left by bulk eviction reads as gone (skipped) rather
                    # than a gap that would livelock the resend loop.
                    "base": lane.base,
                    "records": [record.wire for record in batch],
                },
            )
        if sent_any or self.outstanding():
            self._arm_retransmit()

    def _arm_retransmit(self) -> None:
        if self._retx_event is None:
            self._retx_event = self.sim.schedule(
                self.config.retransmit_timeout, self._on_retransmit_timeout
            )

    def _on_retransmit_timeout(self) -> None:
        self._retx_event = None
        if not self.outstanding():
            return
        # Go-back-N: nothing acked within the timeout, so the in-flight
        # window is presumed lost (or deferred) -- resend from the ack
        # watermark.  Duplicate delivery is harmless: the consumer skips
        # offsets at or below its consumed watermark.
        for lane in self.lanes.values():
            if lane.sent_high > lane.acked:
                lane.sent_high = lane.acked
        self._flush()

    # ------------------------------------------------------------------
    # Acks
    # ------------------------------------------------------------------
    def _on_control(self, message: "ControlMessage") -> None:
        if message.kind != "stream-ack":
            return
        body = message.body
        lane = self.lanes.get(str(body.get("lane", "")))
        offset = body.get("offset")
        if lane is None or not isinstance(offset, int):
            return
        self.acks_received += 1
        lane.ack(offset)
        if lane.replay_lag() > 0:
            # More retained records beyond the acked window: keep draining
            # without waiting out a full retransmit timeout.
            self._schedule_flush()
        elif not self.outstanding() and self._retx_event is not None:
            self.sim.cancel(self._retx_event)
            self._retx_event = None

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
        self.metric_labels = {"dlq": metrics.unique(name)}
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
@dataclass
class _ConsumerState:
    """Per-(host, lane) consumption cursor."""

    consumed: int | None = None  # None until first contact (adopt base)
    delivered: int = 0
    last_batch_at: float = field(default=0.0)


class StreamConsumer:
    """The controller's end of the durable stream: in-order consumption.

    ``deliver(body, sent_at)`` is the existing alert ingress
    (:meth:`IoTSecController._on_alert`), so replayed records flow through
    the same escalation/telemetry path as live ones -- stamped with their
    *birth* time, which is what makes post-outage timelines honest.

    Exactly-once holds per consumer incarnation (offsets are in-memory
    controller state); across a controller crash + failover the stream
    degrades to at-least-once, exactly like the reliable channel path.
    """

    def __init__(
        self,
        sim: "Simulator",
        channel: "ControlChannel",
        name: str,
        deliver: Callable[[dict[str, Any], float], None],
        dlq: DeadLetterQueue,
        defer: Callable[[], bool] | None = None,
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
        #: When true, bulk records stay in the host buffer (shed mode):
        #: the consumer stops consuming instead of dropping.
        self.defer = defer
        self.host_trust = host_trust
        self.trust_threshold = trust_threshold
        self.replay_age = replay_age
        self._states: dict[tuple[str, str], _ConsumerState] = {}
        self.flagged: set[str] = set()
        self.delivered = 0
        self.duplicates = 0
        self.gaps = 0
        self.deferred = 0
        #: Offsets skipped because the host evicted them under pressure
        #: (its advertised base moved past our cursor): known-lost, never
        #: silently -- the host journaled each eviction when it happened.
        self.skipped_unavailable = 0
        self.batches = 0
        self.replayed_batches = 0
        metrics = sim.metrics
        self.metric_labels = {"consumer": metrics.unique(name)}
        self._c_delivered = metrics.counter("stream_delivered", **self.metric_labels)
        self._c_duplicates = metrics.counter("stream_duplicates", **self.metric_labels)
        self._c_gaps = metrics.counter("stream_gaps", **self.metric_labels)
        self._c_deferred = metrics.counter("stream_deferred", **self.metric_labels)

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
        state = self._states.get((host, lane))
        return state.consumed or 0 if state else 0

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
        self.batches += 1
        state = self._states.get((host, lane))
        if state is None:
            state = self._states[(host, lane)] = _ConsumerState()
        raw_base = body.get("base")
        base = (
            raw_base
            if isinstance(raw_base, int)
            and not isinstance(raw_base, bool)
            and raw_base >= 0
            else None
        )
        if base is not None and state.consumed is not None and base > state.consumed:
            # The host declared offsets <= base unavailable (evicted under
            # pressure, already journaled host-side): waiting for them
            # would livelock the resend loop, so skip the hole and count.
            self.skipped_unavailable += base - state.consumed
            state.consumed = base
        if base is not None and state.consumed is None:
            # First contact (fresh controller after failover, or a brand-
            # new host): adopt the host's replay base.  Everything at or
            # below it was consumed by the previous incarnation or
            # evicted; anything above it that this batch skips is a *gap*
            # the host must resend -- without the base, a dropped first
            # batch would silently skip the stream's prefix.
            state.consumed = base
        flagged = self._host_flagged(host)
        oldest_at: float | None = None
        consumed_before = state.consumed
        for wire in records:
            # An exact dict first: the ``Mapping`` check is an ABC call.
            mapping = type(wire) is dict or isinstance(wire, Mapping)
            offset = wire.get("offset") if mapping else None
            if not isinstance(offset, int) or isinstance(offset, bool) or offset < 1:
                # No usable offset: quarantine, but the cursor cannot
                # advance past a record it cannot place.
                self.dlq.quarantine(wire, "bad-offset", host)
                continue
            if state.consumed is None:
                # Hand-crafted batch without a replay base: fall back to
                # adopting the first offset seen.
                state.consumed = offset - 1
            if offset <= state.consumed:
                self.duplicates += 1
                self._c_duplicates.inc()
                continue
            if offset > state.consumed + 1:
                # A hole: stop here and let go-back-N refill it.  Acking
                # the old watermark below is what triggers the resend.
                self.gaps += 1
                self._c_gaps.inc()
                break
            if (
                lane == LANE_BULK
                and self.defer is not None
                and self.defer()
            ):
                # Shed mode: defer-to-buffer.  Do not consume, do not
                # drop -- the un-advanced ack leaves the record in the
                # host's durable buffer for replay after shedding ends.
                self.deferred += 1
                self._c_deferred.inc()
                break
            reason = "reputation" if flagged else validate_record(wire)
            state.consumed = offset  # poison records must not wedge the lane
            if reason is not None:
                self.dlq.quarantine(wire, reason, host)
                continue
            at = wire.get("at")
            sent_at = float(at) if isinstance(at, (int, float)) else message.sent_at
            if oldest_at is None:
                oldest_at = sent_at
            state.delivered += 1
            self.delivered += 1
            self._c_delivered.inc()
            self.deliver(wire["body"], sent_at)  # shared, never edited
        state.last_batch_at = self.sim.now
        if (
            oldest_at is not None
            and self.sim.now - oldest_at >= self.replay_age
            and state.consumed is not None
        ):
            # Post-outage catch-up: summarize the replayed batch so the
            # journal shows late-but-in-order delivery, not a silent gap.
            self.replayed_batches += 1
            self.sim.journal.record(
                "stream-replay",
                host=host,
                lane=lane,
                base=(consumed_before if consumed_before is not None else 0) + 1,
                consumed=state.consumed,
                oldest_at=oldest_at,
                lag=self.sim.now - oldest_at,
            )
        # Cumulative ack (unreliable, loseable: a lost ack just costs a
        # retransmission, which offset dedup absorbs).
        self.channel.send(
            self.name,
            host,
            "stream-ack",
            {"lane": lane, "offset": state.consumed or 0},
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        return {
            "batches": self.batches,
            "delivered": self.delivered,
            "duplicates": self.duplicates,
            "gaps": self.gaps,
            "deferred": self.deferred,
            "skipped_unavailable": self.skipped_unavailable,
            "replayed_batches": self.replayed_batches,
            "flagged_hosts": sorted(self.flagged),
            "offsets": {
                f"{host}/{lane}": state.consumed or 0
                for (host, lane), state in sorted(self._states.items())
            },
        }
