"""Tests for the durable telemetry plane (:mod:`repro.obs.stream`).

Covers the three cooperating parts -- host-side store-and-forward lanes,
the controller-side in-order consumer, and the dead-letter queue -- plus
the property that matters: after any seeded drop/partition pattern, every
buffered record is delivered exactly once, in order, per lane.
"""

import math
from collections.abc import Mapping

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.simulator import Simulator
from repro.obs.stream import (
    LANE_BULK,
    LANE_URGENT,
    VIEW_DELTA,
    DeadLetterQueue,
    HostStream,
    StreamConfig,
    StreamConsumer,
    _Lane,
    lane_for,
    validate_record,
)
from repro.sdn.channel import ControlChannel, ControlMessage, FaultModel


def wire(offset=1, at=0.0, device="cam", kind="port-scan", **over):
    body = {"device": device, "kind": kind, "mbox": "m1", "detail": {}, "trace": None}
    body.update(over.pop("body", {}))
    record = {"offset": offset, "at": at, "body": body}
    record.update(over)
    return record


def _reference_validate_record(wire):
    """``validate_record`` as it was before its exact-type shortcuts (and
    before it refused non-finite timestamps): the reference verdict."""
    if not isinstance(wire, Mapping):
        return "not-a-record"
    offset = wire.get("offset")
    if not isinstance(offset, int) or isinstance(offset, bool) or offset < 1:
        return "bad-offset"
    at = wire.get("at")
    if not isinstance(at, (int, float)) or isinstance(at, bool) or at < 0:
        return "bad-timestamp"
    body = wire.get("body")
    if not isinstance(body, Mapping):
        return "no-body"
    device = body.get("device")
    if not isinstance(device, str) or not device:
        return "bad-device"
    kind = body.get("kind")
    if not isinstance(kind, str) or not kind or len(kind) > 64:
        return "bad-kind"
    detail = body.get("detail", {})
    if not isinstance(detail, Mapping) or any(not isinstance(key, str) for key in detail):
        return "bad-detail"
    if not isinstance(body.get("mbox", ""), str):
        return "bad-mbox"
    trace = body.get("trace")
    if trace is not None and (not isinstance(trace, int) or isinstance(trace, bool)):
        return "bad-trace"
    return None


class _Int(int):
    pass


class _Str(str):
    pass


class _Dict(dict):
    pass


class _Frozen(Mapping):
    """A read-only ``Mapping`` that is not a ``dict``."""

    def __init__(self, items):
        self._items = dict(items)

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)


_JUNK = st.one_of(st.none(), st.text(max_size=2), st.lists(st.integers(), max_size=2))
_TEXT = st.text(max_size=3)
_VALUES = st.one_of(
    _TEXT, st.integers(), st.floats(), st.none(), st.dictionaries(_TEXT, _TEXT, max_size=2)
)
_DETAIL = st.dictionaries(_TEXT, _VALUES, max_size=3)
_ODD_INTS = st.one_of(st.booleans(), st.integers(0, 9).map(_Int))
_NON_STR_KEYS = st.dictionaries(
    st.one_of(st.integers(0, 3), st.booleans(), _TEXT.map(_Str)), _VALUES, min_size=1, max_size=2
)
#: What a field turns into when a draw makes it odd.
_ODD = {
    "offset": st.one_of(st.integers(-2, 0), _ODD_INTS, st.floats(), _JUNK),
    "at": st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(max_value=-1e-9),
        _ODD_INTS,
        _JUNK,
    ),
    "device": st.one_of(st.just(""), _TEXT.map(_Str), _ODD_INTS, st.integers(), _JUNK),
    "kind": st.one_of(
        st.sampled_from(["", "k" * 65]),
        st.integers(0, 65).map(lambda n: _Str("k" * n)),
        _ODD_INTS,
        _JUNK,
    ),
    "detail": st.one_of(
        _DETAIL.map(_Frozen),
        _DETAIL.map(_Dict),
        st.dictionaries(_TEXT.map(_Str), _VALUES, min_size=1, max_size=2),
        st.tuples(_DETAIL, _NON_STR_KEYS).map(lambda pair: {**pair[0], **pair[1]}),
        _ODD_INTS,
        _JUNK,
    ),
    "mbox": st.one_of(_TEXT.map(_Str), _ODD_INTS, st.integers(), st.none()),
    "trace": st.one_of(_ODD_INTS, st.floats(), _TEXT),
}
_BODY_FIELDS = ("device", "kind", "detail", "mbox", "trace")
_CONTAINERS = st.sampled_from([_Frozen, _Dict, lambda m: {**m, 0: "non-str key"}, list])


@st.composite
def _records(draw):
    """Wire records: a JSON-plain, well-formed one with up to three odd
    spots -- a field turned into a ``bool``, an ``int``/``str`` subclass,
    a non-dict ``Mapping``, non-``str`` keys, junk or nothing, or the
    record or its body wrapped in another container."""
    body = {
        "device": draw(st.text(min_size=1, max_size=3)),
        "kind": draw(st.integers(1, 64).map(lambda n: "k" * n)),
    }
    for key, valid in (("detail", _DETAIL), ("mbox", _TEXT), ("trace", st.none() | st.integers())):
        if draw(st.booleans()):
            body[key] = draw(valid)
    record = {"offset": draw(st.integers(1, 2**70)), "body": body}
    record["at"] = draw(st.floats(0, 1e9) | st.integers(0, 2**70))
    for __ in range(draw(st.integers(0, 3))):
        spot = draw(st.sampled_from([*_ODD, "missing", "body", "record"]))
        if spot == "missing":
            key = draw(st.sampled_from(["offset", "at", "body", *_BODY_FIELDS]))
            (body if key in _BODY_FIELDS else record).pop(key, None)
        elif spot == "body":
            record["body"] = draw(_CONTAINERS)(body)
        elif spot == "record":
            return draw(_CONTAINERS)(record)
        else:
            (body if spot in _BODY_FIELDS else record)[spot] = draw(_ODD[spot])
    return record


class TestValidateRecord:
    def test_valid_record_passes(self):
        assert validate_record(wire()) is None
        assert validate_record(wire(trace=None)) is None

    @pytest.mark.parametrize(
        ("record", "reason"),
        [
            ("nope", "not-a-record"),
            (wire(offset="1"), "bad-offset"),
            (wire(offset=0), "bad-offset"),
            (wire(offset=True), "bad-offset"),
            (wire(at="soon"), "bad-timestamp"),
            (wire(at=-1.0), "bad-timestamp"),
            ({"offset": 1, "at": 0.0, "body": []}, "no-body"),
            (wire(body={"device": ""}), "bad-device"),
            (wire(body={"device": 7}), "bad-device"),
            (wire(body={"kind": ""}), "bad-kind"),
            (wire(body={"kind": "x" * 65}), "bad-kind"),
            (wire(body={"detail": [1, 2]}), "bad-detail"),
            (wire(body={"detail": {1: "x"}}), "bad-detail"),
            (wire(body={"mbox": 9}), "bad-mbox"),
            (wire(body={"trace": "t7"}), "bad-trace"),
            (wire(at=math.nan), "bad-timestamp"),
            (wire(at=math.inf), "bad-timestamp"),
            (wire(at=-math.inf), "bad-timestamp"),
        ],
    )
    def test_malformed_records_named(self, record, reason):
        assert validate_record(record) == reason

    @settings(max_examples=500, deadline=None)
    @given(_records())
    @example(wire(offset=True))
    @example(wire(at=math.inf))
    @example(wire(body={"kind": "k" * 65}))
    @example(wire(body={"detail": {"ok": 1, 2: "x"}}))
    @example(wire(body={"detail": {_Str("ok"): 1}}))
    @example(wire(body={"detail": _Frozen({"ok": 1})}))
    @example({**wire(), "body": _Frozen(wire()["body"])})
    @example(_Frozen(wire()))
    @example(wire(body={"mbox": 9}))
    @example(wire(body={"trace": True}))
    def test_verdict_is_the_reference_verdict(self, record):
        """The ``type(x) is dict`` and key-type shortcuts change no
        verdict: every input gets the reference's answer, except that a
        non-finite ``at`` the reference let through is now
        ``bad-timestamp``."""
        expected = _reference_validate_record(record)
        at = record.get("at") if isinstance(record, Mapping) else None
        if (
            expected not in ("not-a-record", "bad-offset")
            and isinstance(at, float)
            and not math.isfinite(at)
        ):
            expected = "bad-timestamp"
        assert validate_record(record) == expected

    def test_lane_for(self):
        assert lane_for(VIEW_DELTA) == LANE_BULK
        assert lane_for("storm") == LANE_URGENT
        assert lane_for("port-scan") == LANE_URGENT
        assert lane_for("login-rejected") == LANE_URGENT


class TestLane:
    def test_offsets_monotonic_from_one(self):
        lane = _Lane("bulk", segment_size=2, max_segments=4, evict_unacked=True)
        offsets = [lane.append({"i": i}, 0.0)[0].offset for i in range(5)]
        assert offsets == [1, 2, 3, 4, 5]
        assert lane.replay_lag() == 5 and lane.depth() == 5

    def test_ack_is_cumulative_and_idempotent(self):
        lane = _Lane("bulk", segment_size=2, max_segments=4, evict_unacked=True)
        for i in range(6):
            lane.append({"i": i}, 0.0)
        lane.ack(4)
        assert lane.acked == 4 and lane.replay_lag() == 2
        lane.ack(2)  # stale: must not regress
        assert lane.acked == 4
        lane.ack(99)  # clamped to what exists
        assert lane.acked == 6 and lane.replay_lag() == 0
        assert lane.depth() == 0  # everything acked: segments freed

    def test_ack_frees_only_fully_covered_segments(self):
        lane = _Lane("bulk", segment_size=2, max_segments=8, evict_unacked=True)
        for i in range(6):
            lane.append({"i": i}, 0.0)
        lane.ack(3)  # covers segment [1,2] fully, [3,4] partially
        assert lane.depth() == 4
        assert lane.oldest_unacked().offset == 4

    def test_window_after_returns_consecutive_records(self):
        lane = _Lane("bulk", segment_size=2, max_segments=8, evict_unacked=True)
        for i in range(7):
            lane.append({"i": i}, 0.0)
        window = lane.window_after(2, limit=3)
        assert [r.offset for r in window] == [3, 4, 5]

    def test_bulk_lane_evicts_oldest_unacked_over_capacity(self):
        lane = _Lane("bulk", segment_size=2, max_segments=2, evict_unacked=True)
        for i in range(7):  # capacity 4
            lane.append({"i": i}, 0.0)
        assert lane.lost > 0
        assert lane.depth() <= 2 * (2 + 1)
        # The survivors are the newest records, still in offset order.
        offsets = [r.offset for r in lane.window_after(0, limit=99)]
        assert offsets == sorted(offsets)
        assert offsets[-1] == 7

    def test_urgent_lane_never_evicts_unacked(self):
        lane = _Lane("urgent", segment_size=2, max_segments=2, evict_unacked=False)
        for i in range(20):
            lane.append({"i": i}, 0.0)
        assert lane.lost == 0
        assert lane.overflow > 0
        assert lane.depth() == 20  # retained past capacity: evidence kept

    def test_peak_depth_tracked(self):
        lane = _Lane("bulk", segment_size=4, max_segments=8, evict_unacked=True)
        for i in range(9):
            lane.append({"i": i}, 0.0)
        lane.ack(9)
        assert lane.depth() == 0 and lane.peak_depth == 9

    @given(
        st.booleans(),
        st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=40)), max_size=60),
    )
    def test_depth_is_the_sum_over_segments(self, evict_unacked, steps):
        """``depth`` is a maintained count; the reference is the sum it
        replaced, across appends, frees, evictions and full-drain recycles."""
        lane = _Lane("lane", segment_size=3, max_segments=2, evict_unacked=evict_unacked)
        peak = 0
        for ack in steps:
            if ack is None:
                lane.append({}, 0.0)
            else:
                lane.ack(ack)
            depth = sum(len(segment) for segment in lane._segments)
            peak = max(peak, depth)
            assert lane.depth() == lane.stats()["depth"] == depth
            assert lane.peak_depth == peak

    @given(
        st.booleans(),
        st.lists(st.one_of(st.none(), st.integers(min_value=0, max_value=40)), max_size=60),
        st.integers(min_value=0, max_value=45),
        st.integers(min_value=1, max_value=8),
    )
    def test_window_after_is_the_scan(self, evict_unacked, steps, start, limit):
        """``window_after`` indexes into a segment by offset; the reference
        is a scan of every retained record, across appends, frees,
        evictions and full-drain recycles."""
        lane = _Lane("lane", segment_size=3, max_segments=2, evict_unacked=evict_unacked)
        for ack in steps:
            if ack is None:
                lane.append({}, 0.0)
            else:
                lane.ack(ack)
            retained = [record for segment in lane._segments for record in segment]
            scan = [record for record in retained if record.offset > start][:limit]
            assert lane.window_after(start, limit) == scan


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"segment_size": 0},
            {"max_segments": 0},
            {"batch_max": 0},
            {"flush_delay": -1.0},
            {"retransmit_timeout": 0.0},
            {"flush_delay": math.nan},
            {"retransmit_timeout": math.nan},
            {"heartbeat_min_interval": math.nan},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            StreamConfig(**kwargs)

    @pytest.mark.parametrize("replay_age", [math.nan, -1.0])
    def test_consumer_rejects_bad_replay_age(self, sim, replay_age):
        """A NaN age would compare false forever and silently turn off
        the ``stream-replay`` summaries."""
        with pytest.raises(ValueError):
            StreamConsumer(
                sim,
                ControlChannel(sim),
                "ctrl",
                deliver=lambda body, at: None,
                dlq=DeadLetterQueue(sim),
                replay_age=replay_age,
            )

    def test_lane_capacity(self):
        assert StreamConfig(segment_size=8, max_segments=4).lane_capacity == 32


class TestDeadLetterQueue:
    def test_bounded_rotation_keeps_newest(self, sim):
        dlq = DeadLetterQueue(sim, max_records=3)
        for i in range(5):
            dlq.quarantine(wire(offset=i + 1), "bad-kind", "h")
        stats = dlq.stats()
        assert stats["depth"] == 3 and stats["rotated"] == 2
        assert stats["quarantined"] == 5
        assert [e["offset"] for e in dlq.entries()] == [3, 4, 5]

    def test_every_quarantine_journaled(self, sim):
        dlq = DeadLetterQueue(sim, max_records=2)
        for i in range(4):
            dlq.quarantine(wire(offset=i + 1), "reputation", "rogue")
        journaled = sim.journal.entries(kind="dlq")
        # The journal outlives DLQ rotation: all 4 refusals recorded.
        assert len(journaled) == 4
        assert journaled[0].fields["reason"] == "reputation"
        assert journaled[0].fields["host"] == "rogue"

    def test_filters_and_export(self, sim, tmp_path):
        dlq = DeadLetterQueue(sim)
        dlq.quarantine(wire(device="cam"), "bad-kind", "h1")
        dlq.quarantine(wire(device="plug"), "reputation", "h2")
        assert [e["host"] for e in dlq.for_device("cam")] == ["h1"]
        assert [e["device"] for e in dlq.entries(reason="reputation")] == ["plug"]
        out = tmp_path / "dlq.jsonl"
        assert dlq.export_jsonl(str(out)) == 2
        assert len(out.read_text().splitlines()) == 2

    def test_hostile_payload_stored_json_safe(self, sim):
        dlq = DeadLetterQueue(sim)
        entry = dlq.quarantine({"offset": 1, "body": {"device": object()}}, "bad-device", "h")
        assert isinstance(entry["record"]["body"]["device"], str)

    def test_rejects_bad_bound(self, sim):
        with pytest.raises(ValueError):
            DeadLetterQueue(sim, max_records=0)


class Rig:
    """One host stream wired to one consumer over a real control channel."""

    def __init__(self, sim, config=None, latency=0.001):
        self.sim = sim
        self.channel = ControlChannel(sim, latency=latency)
        self.delivered: list[tuple[dict, float]] = []
        self.dlq = DeadLetterQueue(sim)
        self.consumer = StreamConsumer(
            sim,
            self.channel,
            "ctrl",
            deliver=lambda body, at: self.delivered.append((body, at)),
            dlq=self.dlq,
        )
        self.channel.register("ctrl", self._dispatch)
        self.stream = HostStream(
            sim,
            "host",
            self.channel,
            "ctrl",
            config=config
            or StreamConfig(
                segment_size=4,
                max_segments=8,
                batch_max=8,
                flush_delay=0.001,
                retransmit_timeout=0.5,
            ),
        )

    def _dispatch(self, message):
        if message.kind == "stream":
            self.consumer.on_batch(message)

    def bodies(self, kind=None):
        return [
            b for b, __ in self.delivered if kind is None or b.get("kind") == kind
        ]


def body(i, kind="port-scan", device="cam"):
    return {"device": device, "kind": kind, "mbox": "m1", "detail": {"i": i}, "trace": None}


class TestEndToEnd:
    def test_in_order_delivery_and_drain(self, sim):
        rig = Rig(sim)
        for i in range(6):
            rig.stream.offer("port-scan", body(i))
        for i in range(6, 9):
            rig.stream.offer(VIEW_DELTA, body(i, kind=VIEW_DELTA))
        sim.run(until=5.0)
        assert [b["detail"]["i"] for b in rig.bodies("port-scan")] == [0, 1, 2, 3, 4, 5]
        assert [b["detail"]["i"] for b in rig.bodies(VIEW_DELTA)] == [6, 7, 8]
        assert rig.stream.outstanding() == 0
        # Fully acked: both lanes drained back to zero retained records.
        assert all(lane.depth() == 0 for lane in rig.stream.lanes.values())
        assert rig.consumer.duplicates == 0 and rig.consumer.gaps == 0

    def test_delivery_keeps_birth_timestamp(self, sim):
        rig = Rig(sim)
        sim.schedule(1.5, rig.stream.offer, "port-scan", body(0))
        sim.run(until=5.0)
        ((__, sent_at),) = rig.delivered
        assert sent_at == pytest.approx(1.5)

    def test_partition_replays_late_but_in_order(self, sim):
        rig = Rig(sim)
        rig.channel.partition(0.0, 10.0)  # whole channel dark
        for i in range(12):
            sim.schedule(0.5 * i, rig.stream.offer, "port-scan", body(i))
        sim.run(until=10.0)
        assert rig.delivered == []  # nothing crossed the partition
        assert rig.stream.skipped_unreachable > 0
        assert rig.stream.outstanding() == 12
        sim.run(until=30.0)
        assert [b["detail"]["i"] for b in rig.bodies()] == list(range(12))
        assert rig.stream.outstanding() == 0
        # Replayed records keep their pre-partition birth stamps.
        assert all(at < 10.0 for __, at in rig.delivered)
        # The catch-up batch is journaled as a replay, not a silent gap.
        replays = sim.journal.entries(kind="stream-replay")
        assert replays and replays[0].fields["lag"] >= 5.0

    def test_partition_send_suppression(self, sim):
        """During the outage the stream probes timers, not the wire."""
        rig = Rig(sim)
        rig.channel.partition(0.0, 200.0)
        rig.stream.offer("port-scan", body(0))
        sim.run(until=100.0)
        # No stream batch ever hit the channel while dark (sent counts
        # only the probe-free buffering path: zero "stream" sends).
        assert rig.stream.batches_sent == 0
        assert rig.stream.skipped_unreachable > 0

    def test_flagged_host_quarantined_but_stream_advances(self, sim):
        rig = Rig(sim)
        rig.consumer.flag_host("host")
        for i in range(3):
            rig.stream.offer("port-scan", body(i))
        sim.run(until=5.0)
        assert rig.delivered == []
        assert rig.dlq.stats()["by_reason"] == {"reputation": 3}
        # Quarantine still acks: the host's buffer drains, no wedge.
        assert rig.stream.outstanding() == 0

    def test_low_trust_host_quarantined(self, sim):
        channel = ControlChannel(sim, latency=0.001)
        delivered = []
        dlq = DeadLetterQueue(sim)
        consumer = StreamConsumer(
            sim,
            channel,
            "ctrl",
            deliver=lambda b, at: delivered.append(b),
            dlq=dlq,
            host_trust=lambda host: 0.1,
        )
        channel.register("ctrl", lambda m: consumer.on_batch(m))
        channel.send("h", "ctrl", "stream", {"host": "h", "lane": "bulk", "records": [wire()]})
        sim.run()
        assert delivered == []
        assert dlq.stats()["by_reason"] == {"reputation": 1}

    def test_poison_record_does_not_wedge_the_lane(self, sim):
        rig = Rig(sim)
        records = [
            wire(offset=1, body={"device": ""}),  # malformed
            wire(offset=2, at=0.0, body={"detail": {"i": 2}}),
        ]
        rig.channel.send(
            "h2", "ctrl", "stream", {"host": "h2", "lane": "bulk", "records": records}
        )
        sim.run(until=1.0)
        # The poison record is quarantined AND the cursor moved past it.
        assert rig.dlq.stats()["by_reason"] == {"bad-device": 1}
        assert [b["detail"]["i"] for b in rig.bodies()] == [2]
        assert rig.consumer.offset_of("h2", "bulk") == 2

    def test_nan_timestamp_is_quarantined_and_the_window_stays_bounded(self):
        """A NaN-stamped record would sit at the head of its escalation
        window and stop the pruning for the rest of the run; it is
        refused at the door instead, and the window keeps its bound."""
        from repro.core.deployment import SecuredDeployment
        from repro.devices.library import smart_camera

        dep = SecuredDeployment.build(durable_telemetry=True)
        dep.add_device(smart_camera, "cam")
        dep.finalize()
        consumer, escalator = dep.controller.stream, dep.controller.pipeline.escalator
        stamps = [math.nan] + [0.5 * i for i in range(1000)]
        records = [
            wire(offset=i + 1, at=at, kind="login-attempt") for i, at in enumerate(stamps)
        ]
        for start in range(0, len(records), 64):
            batch = records[start : start + 64]
            body = {"host": "h", "lane": LANE_URGENT, "base": start, "records": batch}
            consumer.on_batch(ControlMessage("stream", "h", body, sent_at=dep.sim.now))
        dep.run(until=1.0)
        assert consumer.dlq.stats()["by_reason"] == {"bad-timestamp": 1}
        assert consumer.offset_of("h", LANE_URGENT) == 1001
        # login-attempt's widest window is 30 s: 61 stamps at 0.5 s apart.
        assert escalator.pending_counts()[("cam", "login-attempt")] <= 61

    def test_record_without_offset_quarantined_without_advancing(self, sim):
        rig = Rig(sim)
        records = [{"at": 0.0, "body": body(0)}, wire(offset=1, body={"detail": {"i": 1}})]
        rig.channel.send(
            "h3", "ctrl", "stream", {"host": "h3", "lane": "bulk", "records": records}
        )
        sim.run(until=1.0)
        assert rig.dlq.stats()["by_reason"] == {"bad-offset": 1}
        assert rig.consumer.offset_of("h3", "bulk") == 1

    def test_malformed_batch_envelope_quarantined(self, sim):
        rig = Rig(sim)
        rig.channel.send("h4", "ctrl", "stream", {"host": "h4", "lane": "nope", "records": []})
        rig.channel.send("h5", "ctrl", "stream", {"records": "zzz"})
        sim.run(until=1.0)
        reasons = rig.dlq.stats()["by_reason"]
        assert reasons == {"malformed-batch": 2}

    def test_bulk_eviction_under_long_partition_is_journaled(self, sim):
        config = StreamConfig(
            segment_size=2, max_segments=2, batch_max=8, flush_delay=0.001,
            retransmit_timeout=0.5,
        )
        rig = Rig(sim, config=config)
        # Record 0 crosses before the partition, giving the consumer a
        # cursor; the flood during the outage overflows the tiny buffer.
        rig.channel.partition(0.5, 20.0)
        rig.stream.offer(VIEW_DELTA, body(0, kind=VIEW_DELTA))
        for i in range(1, 20):  # capacity 4: most must be evicted
            sim.schedule(
                0.5 + 0.1 * i, rig.stream.offer, VIEW_DELTA, body(i, kind=VIEW_DELTA)
            )
        sim.run(until=40.0)
        lane = rig.stream.lanes[LANE_BULK]
        assert lane.lost > 0
        evicts = sim.journal.entries(kind="stream-evict")
        assert evicts and sum(e.fields["evicted"] for e in evicts) == lane.lost
        # Survivors arrive in order, exactly once, ending at the newest.
        seen = [b["detail"]["i"] for b in rig.bodies()]
        assert seen == sorted(seen) and len(seen) == len(set(seen))
        assert seen[-1] == 19
        assert len(seen) + lane.lost == 20
        # The consumer knows exactly how many records the host shed.
        assert rig.consumer.skipped_unavailable == lane.lost

    def test_urgent_overflows_but_loses_nothing(self, sim):
        config = StreamConfig(
            segment_size=2, max_segments=2, batch_max=8, flush_delay=0.001,
            retransmit_timeout=0.5,
        )
        rig = Rig(sim, config=config)
        rig.channel.partition(0.0, 20.0)
        for i in range(20):
            sim.schedule(0.1 * i, rig.stream.offer, "port-scan", body(i))
        sim.run(until=40.0)
        lane = rig.stream.lanes[LANE_URGENT]
        assert lane.lost == 0 and lane.overflow > 0
        assert [b["detail"]["i"] for b in rig.bodies()] == list(range(20))

    def test_an_ack_counts_only_from_the_lanes_receiver(self, sim):
        """A ``stream-ack`` from any endpoint but the controller frees
        nothing: the held alerts still reach the controller after the heal."""
        rig = Rig(sim)
        rig.channel.partition(0.0, 10.0, endpoints=("ctrl",))
        for i in range(5):
            rig.stream.offer("port-scan", body(i))
        sim.run(until=1.0)
        rig.channel.send("edge", "host", "stream-ack", {"lane": LANE_URGENT, "offset": 5})
        sim.run(until=2.0)
        assert rig.stream.outstanding() == 5
        assert rig.stream.stats()["lanes"][LANE_URGENT]["lost"] == 0
        sim.run(until=30.0)
        assert [b["detail"]["i"] for b in rig.bodies()] == [0, 1, 2, 3, 4]
        assert rig.stream.outstanding() == 0

    def test_a_batch_counts_only_for_the_host_that_sent_it(self, sim):
        """A batch naming another host -- here with a base a million
        offsets ahead -- is quarantined as ``host-mismatch``; it skips no
        offset, and the host's real alerts are delivered."""
        rig = Rig(sim)
        forged = {"host": "host", "lane": LANE_URGENT, "base": 10**6, "records": []}
        rig.channel.send("edge", "ctrl", "stream", forged)
        sim.run(until=0.5)
        for i in range(3):
            rig.stream.offer("port-scan", body(i))
        sim.run(until=5.0)
        assert [b["detail"]["i"] for b in rig.bodies()] == [0, 1, 2]
        assert rig.dlq.stats()["by_reason"] == {"host-mismatch": 1}
        assert rig.consumer.duplicates == rig.consumer.skipped_unavailable == 0
        assert rig.consumer.offset_of("host", LANE_URGENT) == 3

    def test_heartbeat_journals_backlog_rate_limited(self, sim):
        rig = Rig(sim)
        rig.channel.partition(0.0, 300.0)
        rig.stream.offer("port-scan", body(0))
        sim.run(until=1.0)
        rig.stream.heartbeat()
        rig.stream.heartbeat()  # within min interval: elided
        sim.run(until=100.0)
        rig.stream.heartbeat()
        depths = sim.journal.entries(kind="stream-depth")
        assert len(depths) == 2
        assert depths[0].fields["replay_lag"] == 1
        assert depths[0].fields["oldest_at"] == pytest.approx(0.0)

    def test_heartbeat_silent_when_drained(self, sim):
        rig = Rig(sim)
        rig.stream.offer("port-scan", body(0))
        sim.run(until=5.0)
        rig.stream.heartbeat()
        assert sim.journal.entries(kind="stream-depth") == []

    def test_buffer_gauges_registered(self, sim):
        rig = Rig(sim)
        rig.channel.partition(0.0, 50.0)
        rig.stream.offer(VIEW_DELTA, body(0, kind=VIEW_DELTA))
        sim.run(until=1.0)
        labels = dict(rig.stream.metric_labels, lane=LANE_BULK)
        assert sim.metrics.value("stream_buffer_depth", **labels) == 1
        assert sim.metrics.value("stream_replay_lag", **labels) == 1
        assert sim.metrics.value("dlq_depth", dlq=rig.dlq.metric_labels["dlq"]) == 0


class TestReplayProperty:
    """After *any* seeded drop/partition pattern: exactly once, in order."""

    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_once_in_order_per_lane(self, seed):
        sim = Simulator()
        rig = Rig(sim)
        model = FaultModel(seed=seed, drop_prob=0.3, jitter=0.01)
        model.add_partition(5.0, 15.0)
        model.add_partition(20.0, 24.0)
        rig.channel.inject_faults(model)
        total = 40
        for i in range(total):
            kind = VIEW_DELTA if i % 3 == 0 else "port-scan"
            sim.schedule(0.6 * i, rig.stream.offer, kind, body(i, kind=kind))
        sim.run(until=240.0)
        # Zero loss: every record shows up despite drops and partitions...
        assert rig.stream.outstanding() == 0, f"seed {seed} left a backlog"
        urgent = [b["detail"]["i"] for b in rig.bodies("port-scan")]
        bulk = [b["detail"]["i"] for b in rig.bodies(VIEW_DELTA)]
        assert len(urgent) + len(bulk) == total, f"seed {seed} lost records"
        # ...exactly once (no duplicate delivery past the dedup cursor)...
        assert len(set(urgent)) == len(urgent)
        assert len(set(bulk)) == len(bulk)
        # ...and in per-lane offer order.
        assert urgent == sorted(urgent)
        assert bulk == sorted(bulk)


class TestDeploymentIntegration:
    def test_durable_home_replays_across_outage(self):
        from repro.attacks.exploits import EXPLOITS
        from repro.core.deployment import SecuredDeployment
        from repro.devices.library import smart_camera
        from repro.faults import long_partition_plan

        dep = SecuredDeployment.build(durable_telemetry=True)
        dep.add_device(smart_camera, "cam")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.enforce_baseline()
        # A multi-hour blackout starting just after the attack begins.
        long_partition_plan(start=10.0, hours=2.0).apply(dep)
        EXPLOITS["brute_force_login"].launch(attacker, "cam", dep.sim)
        dep.run(until=10.0 + 2.0 * 3600.0 + 120.0)
        consumer = dep.controller.stream
        assert consumer is not None
        assert consumer.delivered > 0
        assert dep.host_stream is not None
        assert dep.host_stream.outstanding() == 0  # fully drained post-heal
        assert dep.host_stream.lanes[LANE_URGENT].lost == 0

    def test_default_deployment_has_no_stream(self):
        from repro.core.deployment import SecuredDeployment

        dep = SecuredDeployment.build()
        dep.finalize()
        assert dep.host_stream is None
        assert dep.controller.stream is None and dep.controller.dlq is None


class TestStreamGauges:
    """Per-(host, lane) exposition: depth, replay lag, and ack lag."""

    def test_labels_carry_stable_host_and_lane(self, sim):
        rig = Rig(sim)
        assert rig.stream.metric_labels["host"] == "host"
        for lane in (LANE_URGENT, LANE_BULK):
            for name in (
                "stream_buffer_depth",
                "stream_replay_lag",
                "stream_ack_lag_seconds",
            ):
                assert (
                    sim.metrics.value(name, lane=lane, **rig.stream.metric_labels)
                    == 0.0
                )

    def test_ack_lag_ages_under_partition_and_clears_on_ack(self, sim):
        rig = Rig(sim)
        rig.channel.partition(0.0, 20.0)
        rig.stream.offer("port-scan", body(1))
        sim.run(until=15.0)
        labels = dict(rig.stream.metric_labels, lane=LANE_URGENT)
        lag = sim.metrics.value("stream_ack_lag_seconds", **labels)
        # The record was born at t=0 and is still unacked at t=15.
        assert lag == pytest.approx(15.0)
        assert sim.metrics.value("stream_replay_lag", **labels) == 1
        sim.run(until=30.0)  # heal: batch ships, ack returns
        assert sim.metrics.value("stream_ack_lag_seconds", **labels) == 0.0
        assert sim.metrics.value("stream_replay_lag", **labels) == 0

    def test_dlq_size_and_quarantine_counters_exported(self, sim):
        rig = Rig(sim)
        rig.stream.offer("port-scan", body(1, kind="x" * 65))
        rig.stream.offer("port-scan", body(2))
        sim.run(until=5.0)
        labels = rig.dlq.metric_labels
        assert sim.metrics.value("dlq_depth", **labels) == 1
        assert sim.metrics.value("dlq_quarantined", **labels) == 1
        assert rig.bodies() and rig.bodies()[0]["detail"]["i"] == 2
