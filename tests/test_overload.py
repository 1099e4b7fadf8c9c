"""Tests for the bounded priority ingest queue (enforcing before monitor)."""

import pytest

from repro.core.overload import CLASS_ENFORCING, CLASS_MONITOR, IngestConfig, IngestQueue


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
