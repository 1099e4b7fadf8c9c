"""Tests for hierarchical control."""

import pytest

from repro.core.hierarchical import (
    ControllerQueue,
    HierarchicalControl,
    crossing_devices,
    latency_percentiles,
    partition_by_independence,
)
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS, ctx
from repro.policy.posture import block_commands


def clustered_policy():
    """Two clusters: (alarm->window) and (sensor->oven); bulb standalone."""
    return (
        PolicyBuilder()
        .device("alarm")
        .device("window")
        .device("sensor")
        .device("oven")
        .device("bulb")
        .when(ctx("alarm"), SUSPICIOUS).give("window", block_commands("open"))
        .when(ctx("sensor"), SUSPICIOUS).give("oven", block_commands("on"))
        .when(ctx("bulb"), SUSPICIOUS).give("bulb", block_commands("on"))
        .build()
    )


class TestControllerQueue:
    def test_fifo_service(self, sim):
        queue = ControllerQueue(sim, "q", service_time=0.01, channel_latency=0.001)
        t1 = queue.submit(sim.now)
        t2 = queue.submit(sim.now)
        assert t1 == pytest.approx(0.011)
        assert t2 == pytest.approx(0.021)  # queued behind the first

    def test_idle_queue_resets(self, sim):
        queue = ControllerQueue(sim, "q", 0.01, 0.001)
        queue.submit(sim.now)
        sim.schedule(1.0, lambda: None)
        sim.run()
        t = queue.submit(sim.now)
        assert t == pytest.approx(1.011)

    def test_utilization(self, sim):
        queue = ControllerQueue(sim, "q", 0.01, 0.0)
        for __ in range(10):
            queue.submit(sim.now)
        assert queue.utilization(1.0) == pytest.approx(0.1)

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            ControllerQueue(sim, "q", -0.1, 0.0)

    def test_submit_honors_emitted_at(self, sim):
        """The arrival time comes from the event's emission, not from
        whenever the caller happens to run (`sim.now`)."""
        queue = ControllerQueue(sim, "q", service_time=0.01, channel_latency=0.001)
        # A forwarded event that left its source at t=5.0 arrives at
        # 5.001 and completes at 5.011 even though sim.now is still 0.
        assert sim.now == 0.0
        assert queue.submit(5.0) == pytest.approx(5.011)
        # A second hop chained off that completion queues behind it.
        assert queue.submit(5.0) == pytest.approx(5.021)


class TestPartitioning:
    def test_partition_groups_coupled_devices(self):
        policy = clustered_policy()
        partition = partition_by_independence(policy)
        assert partition["alarm"] == partition["window"]
        assert partition["sensor"] == partition["oven"]
        assert partition["alarm"] != partition["sensor"]

    def test_no_crossing_devices_in_clean_partition(self):
        policy = clustered_policy()
        partition = partition_by_independence(policy)
        assert crossing_devices(policy, partition) == set()

    def test_crossing_detected_for_forced_split(self):
        policy = clustered_policy()
        partition = partition_by_independence(policy)
        # force alarm and window apart
        partition["window"] = max(partition.values()) + 1
        crossing = crossing_devices(policy, partition)
        assert "window" in crossing or "alarm" in crossing

    def test_ruleless_devices_get_singleton_partitions(self):
        """Devices with no rules interact with nothing: each must own an
        isolated partition, not share one catch-all bucket."""
        policy = (
            PolicyBuilder()
            .device("alarm")
            .device("window")
            .device("idle1")
            .device("idle2")
            .device("idle3")
            .when(ctx("alarm"), SUSPICIOUS).give("window", block_commands("open"))
            .build()
        )
        partition = partition_by_independence(policy)
        assert partition["alarm"] == partition["window"]
        idle_parts = {partition["idle1"], partition["idle2"], partition["idle3"]}
        # all distinct, and none shared with the coupled pair
        assert len(idle_parts) == 3
        assert partition["alarm"] not in idle_parts

    def test_crossing_devices_tolerates_missing_partition_entries(self):
        """A device present in the policy but absent from the partition
        map must not crash the computation; its variables simply have no
        owning partition, so coupled peers are flagged as crossing."""
        policy = clustered_policy()
        partition = partition_by_independence(policy)
        del partition["alarm"]  # alarm is unplaced
        crossing = crossing_devices(policy, partition)
        # alarm's context drives window, which lives in a (different,
        # non-None) partition -> the unplaced alarm must escalate.
        assert "alarm" in crossing
        # unrelated pairs stay local
        assert "sensor" not in crossing and "oven" not in crossing


class TestFlatVsHierarchical:
    def test_local_events_faster_in_hierarchy(self, sim):
        policy = clustered_policy()
        partition = partition_by_independence(policy)
        crossing = crossing_devices(policy, partition)
        flat = HierarchicalControl(sim, {}, set(), service_time=0.0005, global_latency=0.02)
        hier = HierarchicalControl(
            sim, partition, crossing,
            service_time=0.0005, local_latency=0.001, global_latency=0.02,
        )
        flat_rec = flat.emit("window")
        hier_rec = hier.emit("window")
        assert hier_rec.latency < flat_rec.latency
        assert not hier_rec.escalated

    def test_hierarchy_offloads_global_controller(self, sim):
        policy = clustered_policy()
        partition = partition_by_independence(policy)
        crossing = crossing_devices(policy, partition)
        flat = HierarchicalControl(sim, {}, set())
        hier = HierarchicalControl(sim, partition, crossing)
        for __ in range(100):
            for device in policy.devices:
                flat.emit(device)
                hier.emit(device)
        assert flat.global_load() == 500
        assert hier.global_load() == 0  # no crossing devices
        assert hier.local_load() == 500

    def test_crossing_devices_escalate(self, sim):
        partition = {"a": 0, "b": 1}
        hier = HierarchicalControl(sim, partition, crossing={"a"})
        record = hier.emit("a")
        assert record.escalated and record.handled_by == "global"
        assert hier.global_load() == 1

    def test_unknown_device_escalates(self, sim):
        hier = HierarchicalControl(sim, {"a": 0}, crossing=set())
        record = hier.emit("mystery")
        assert record.escalated

    def test_escalation_chains_off_local_completion(self, sim):
        """The global hop starts when local triage *completes*: total
        escalated latency = local (channel + service) + global (channel +
        service), not just the global leg."""
        hier = HierarchicalControl(
            sim, {"a": 0}, crossing={"a"},
            service_time=0.0005, local_latency=0.001, global_latency=0.020,
        )
        record = hier.emit("a")
        # local: 0 + 0.001 + 0.0005 = 0.0015; global: 0.0015 + 0.020 + 0.0005
        assert record.handled_at == pytest.approx(0.022)
        assert record.latency == pytest.approx(0.022)
        # An unplaced device has no local triage stage: global leg only.
        fresh = HierarchicalControl(
            sim, {"a": 0}, crossing=set(),
            service_time=0.0005, local_latency=0.001, global_latency=0.020,
        )
        unplaced = fresh.emit("mystery")
        assert unplaced.latency == pytest.approx(0.020 + 0.0005)

    def test_escalated_queueing_carries_across_hops(self, sim):
        """Back-to-back escalations queue at *both* tiers: the second
        event's global hop starts after its own local triage, and then
        waits behind the first event in the global queue."""
        hier = HierarchicalControl(
            sim, {"a": 0}, crossing={"a"},
            service_time=0.01, local_latency=0.001, global_latency=0.020,
        )
        first = hier.emit("a")
        second = hier.emit("a")
        # first: local done 0.011, global done 0.011+0.020+0.01 = 0.041
        assert first.handled_at == pytest.approx(0.041)
        # second: local done 0.021 (queued), global arrival 0.041, but the
        # global server is busy until 0.041 -> done 0.051
        assert second.handled_at == pytest.approx(0.051)


def _events(latencies):
    from repro.core.hierarchical import HandledEvent

    return [
        HandledEvent(i, "d", emitted_at=0.0, handled_at=float(v), handled_by="g", escalated=False)
        for i, v in enumerate(latencies)
    ]


def test_latency_percentiles():
    """Nearest-rank percentiles: element ceil(p*n), 1-based.

    With latencies 1..100, p99 is the 99th value (99.0), *not* the max --
    ``int(p*n)`` was off by one -- and p50 is the 50th value (50.0), not
    biased up to the 51st on an even-length sample.
    """
    stats = latency_percentiles(_events(range(1, 101)))
    assert stats["p50"] == pytest.approx(50.0)
    assert stats["p99"] == pytest.approx(99.0)
    assert stats["max"] == 100.0
    assert latency_percentiles([]) == {"p50": 0.0, "p99": 0.0, "max": 0.0}


def test_latency_percentiles_small_samples():
    # n=1: every percentile is the single observation
    stats = latency_percentiles(_events([7.0]))
    assert stats["p50"] == stats["p99"] == stats["max"] == 7.0
    # n=2: p50 is the lower value (ceil(1.0)-1 = index 0), p99 the upper
    stats = latency_percentiles(_events([1.0, 9.0]))
    assert stats["p50"] == 1.0
    assert stats["p99"] == 9.0
    # n=4 even length: p50 = ceil(2)-1 = index 1, the 2nd value
    stats = latency_percentiles(_events([1.0, 2.0, 3.0, 4.0]))
    assert stats["p50"] == 2.0
