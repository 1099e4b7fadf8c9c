"""Tests for the bounded priority ingest queue (enforcing before monitor)."""

import pytest

from repro.core.overload import CLASS_ENFORCING, CLASS_MONITOR, IngestConfig, IngestQueue
from repro.sdn.channel import ControlChannel


def make_queue(sim, handled, **kwargs):
    config = IngestConfig(**kwargs)
    return IngestQueue(sim, handler=handled.append, config=config)


class TestConfig:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            IngestConfig(capacity=0)

    def test_rejects_negative_service_time(self):
        with pytest.raises(ValueError):
            IngestConfig(service_time=-1.0)


class TestPriorityService:
    def test_strict_class_order(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=8, service_time=0.01)
        q.offer(CLASS_MONITOR, "m1")
        q.offer(CLASS_ENFORCING, "e1")
        q.offer(CLASS_MONITOR, "m2")
        q.offer(CLASS_ENFORCING, "e2")
        sim.run()
        assert handled == ["e1", "e2", "m1", "m2"]

    def test_fifo_mode_is_arrival_order(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=8, service_time=0.01, prioritized=False)
        q.offer(CLASS_MONITOR, "m1")
        q.offer(CLASS_ENFORCING, "e1")
        sim.run()
        assert handled == ["m1", "e1"]

    def test_service_rate_paces_handling(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=8, service_time=0.5)
        times = []
        q.on_processed = lambda cls, lat: times.append(sim.now)
        for i in range(3):
            q.offer(CLASS_ENFORCING, i)
        sim.run()
        assert times == [0.5, 1.0, 1.5]


class TestEviction:
    def test_full_queue_evicts_newest_lower_class(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=2, service_time=1.0)
        assert q.offer(CLASS_MONITOR, "m1")
        assert q.offer(CLASS_MONITOR, "m2")
        # Full.  An enforcing arrival evicts the *newest* monitor entry.
        assert q.offer(CLASS_ENFORCING, "e1")
        assert q.dropped[CLASS_MONITOR] == 1
        sim.run()
        assert handled == ["e1", "m1"]

    def test_equal_class_is_dropped_not_evicted(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=1, service_time=1.0)
        assert q.offer(CLASS_ENFORCING, "e1")
        assert not q.offer(CLASS_ENFORCING, "e2")
        assert q.dropped[CLASS_ENFORCING] == 1

    def test_fifo_mode_is_drop_tail(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=1, service_time=1.0, prioritized=False)
        assert q.offer(CLASS_MONITOR, "m1")
        assert not q.offer(CLASS_ENFORCING, "e1")
        assert q.dropped[CLASS_ENFORCING] == 1
        sim.run()
        assert handled == ["m1"]


class TestClear:
    def test_clear_discards_and_cancels_service(self, sim):
        handled = []
        q = make_queue(sim, handled, capacity=8, service_time=0.5)
        q.offer(CLASS_ENFORCING, "e1")
        q.offer(CLASS_MONITOR, "m1")
        assert q.clear() == 2
        sim.run()
        assert handled == [] and q.depth() == 0


def two_level(sim, service_time, placement=(), crossing=()):
    """Section 5.1's two-level control on the real parts, wired as bench E6
    wires it: one channel with a ``global`` endpoint 20 ms away and a
    ``local-<room>`` endpoint 1 ms away per room, each feeding its own FIFO
    queue.  A local queue forwards a crossing device's event to ``global``.

    Returns ``emit(device)``, the ``(device, endpoint, handled_at)`` list
    and the queues by endpoint.  ``placement`` maps device -> room; an
    unplaced device reports straight to ``global``.
    """
    placement = dict(placement)
    channel = ControlChannel(sim, latency=0.020)
    config = IngestConfig(capacity=1024, service_time=service_time, prioritized=False)
    handled = []
    queues = {}

    def endpoint(name):
        def handle(body):
            if name != "global" and body["device"] in crossing:
                channel.send(name, "global", "event", body)
            else:
                handled.append((body["device"], name, sim.now))

        queue = queues[name] = IngestQueue(sim, handle, config, name=name)
        channel.register(name, lambda message: queue.offer(CLASS_MONITOR, message.body))

    endpoint("global")
    for room in sorted(set(placement.values())):
        channel.set_latency_to(f"local-{room}", 0.001)
        endpoint(f"local-{room}")

    def emit(device):
        room = placement.get(device)
        to = "global" if room is None else f"local-{room}"
        channel.send(device, to, "event", {"device": device, "emitted": sim.now})

    return emit, handled, queues


class TestTwoLevelControlTiming:
    """Reaction times through channel legs and queue service, hop by hop."""

    def test_idle_queue_resets(self, sim):
        emit, handled, __ = two_level(sim, 0.01, {"a": 0})
        emit("a")
        sim.schedule(1.0, emit, "a")  # long after the first is handled
        sim.run()
        assert [at for *__, at in handled] == pytest.approx([0.011, 1.011])

    def test_queued_behind_the_first(self, sim):
        emit, handled, __ = two_level(sim, 0.01, {"a": 0})
        emit("a")
        emit("a")
        sim.run()
        assert [at for *__, at in handled] == pytest.approx([0.011, 0.021])

    def test_local_handling_beats_the_global_round_trip(self, sim):
        emit, handled, __ = two_level(sim, 0.0005, {"a": 0})
        emit("a")  # local: 1 ms + 0.5 ms
        emit("b")  # unplaced, as under flat control: 20 ms + 0.5 ms
        sim.run()
        assert handled == [
            ("a", "local-0", pytest.approx(0.0015)),
            ("b", "global", pytest.approx(0.0205)),
        ]

    def test_two_hop_chain(self, sim):
        """The global hop's channel leg starts when local triage completes:
        local (1 ms + 0.5 ms) then global (20 ms + 0.5 ms)."""
        emit, handled, queues = two_level(sim, 0.0005, {"a": 0}, crossing={"a"})
        emit("a")
        emit("mystery")  # unplaced: the global leg only
        sim.run()
        assert dict((device, at) for device, __, at in handled) == {
            "a": pytest.approx(0.022),
            "mystery": pytest.approx(0.0205),
        }
        assert sum(queues["local-0"].processed) == 1
        assert sum(queues["global"].processed) == 2

    def test_crossing_device_escalates_to_global(self, sim):
        emit, handled, queues = two_level(sim, 0.0005, {"a": 0, "b": 1}, crossing={"a"})
        emit("a")
        sim.run()
        assert [(device, where) for device, where, __ in handled] == [("a", "global")]
        assert sum(queues["local-0"].processed) == 1
        assert sum(queues["global"].processed) == 1
        assert sum(queues["local-1"].processed) == 0

    def test_unplaced_device_goes_straight_to_global(self, sim):
        emit, handled, queues = two_level(sim, 0.0005, {"a": 0})
        emit("mystery")
        sim.run()
        assert handled == [("mystery", "global", pytest.approx(0.0205))]
        assert sum(queues["local-0"].processed) == 0

    def test_forwarded_hop_leaves_at_local_completion(self, sim):
        """A late emission is timed from when it is sent, and its global
        hop from when local service ends: 5.0 + 0.011 + 0.030."""
        emit, handled, __ = two_level(sim, 0.01, {"a": 0}, crossing={"a"})
        sim.schedule(5.0, emit, "a")
        sim.run()
        assert handled == [("a", "global", pytest.approx(5.041))]

    def test_back_to_back_escalation(self, sim):
        """Back-to-back escalations queue at both tiers.  The first leaves
        local triage at 0.011 and is handled at 0.041; the second waits
        behind it at local (0.021), so its global service ends at 0.051."""
        emit, handled, __ = two_level(sim, 0.01, {"a": 0}, crossing={"a"})
        emit("a")
        emit("a")
        sim.run()
        assert [at for *__, at in handled] == pytest.approx([0.041, 0.051])

    def test_hierarchy_offloads_the_global_controller(self, sim):
        placement = {"alarm": 0, "window": 0, "sensor": 1, "oven": 1, "bulb": 2}
        emit, handled, queues = two_level(sim, 0.0005, placement)
        for __ in range(100):
            for device in placement:
                emit(device)
        sim.run()
        assert len(handled) == 500
        assert sum(queues["global"].processed) == 0
        assert sum(sum(q.processed) for q in queues.values()) == 500
