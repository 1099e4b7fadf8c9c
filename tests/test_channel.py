"""Tests for the control channel."""

import math
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.simulator import Simulator
from repro.sdn.channel import ControlChannel, FaultModel


def test_delivery_after_latency(sim):
    chan = ControlChannel(sim, latency=0.05)
    got = []
    chan.register("ctrl", lambda m: got.append((sim.now, m.kind, m.body)))
    chan.send("sw1", "ctrl", "packet-in", {"dst": "cam"})
    sim.run()
    assert got == [(0.05, "packet-in", {"dst": "cam"})]


def test_sent_at_stamped(sim):
    chan = ControlChannel(sim, latency=0.01)
    got = []
    chan.register("ctrl", got.append)
    sim.schedule(2.0, lambda: chan.send("a", "ctrl", "x"))
    sim.run()
    assert got[0].sent_at == 2.0


def test_unregistered_destination_counts_undeliverable(sim):
    chan = ControlChannel(sim)
    chan.send("a", "ghost", "x")
    sim.run()
    assert chan.undeliverable == 1 and chan.delivered == 0


def test_per_destination_latency_override(sim):
    chan = ControlChannel(sim, latency=0.001)
    chan.set_latency_to("cloud", 0.1)
    times = {}
    chan.register("cloud", lambda m: times.setdefault("cloud", sim.now))
    chan.register("local", lambda m: times.setdefault("local", sim.now))
    chan.send("a", "cloud", "x")
    chan.send("a", "local", "x")
    sim.run()
    assert times["local"] == pytest.approx(0.001)
    assert times["cloud"] == pytest.approx(0.1)


def test_broadcast_excludes_sender(sim):
    chan = ControlChannel(sim)
    got = []
    for name in ("a", "b", "c"):
        chan.register(name, lambda m, n=name: got.append(n))
    count = chan.broadcast("a", "hello")
    sim.run()
    assert count == 2
    assert sorted(got) == ["b", "c"]


def test_unregister(sim):
    chan = ControlChannel(sim)
    chan.register("x", lambda m: None)
    chan.unregister("x")
    chan.send("a", "x", "k")
    sim.run()
    assert chan.undeliverable == 1


def test_message_bodies_are_copied(sim):
    chan = ControlChannel(sim)
    got = []
    chan.register("ctrl", got.append)
    body = {"k": 1}
    chan.send("a", "ctrl", "x", body)
    body["k"] = 2
    sim.run()
    assert got[0].body == {"k": 1}


def test_negative_latency_rejected(sim):
    with pytest.raises(ValueError):
        ControlChannel(sim, latency=-1)
    chan = ControlChannel(sim)
    with pytest.raises(ValueError):
        chan.set_latency_to("x", -0.5)


# ---------------------------------------------------------------------------
# Receiver-side dedup: one watermark per lane
# ---------------------------------------------------------------------------
def test_dedup_table_stays_bounded_over_10k_messages(sim):
    """10k seeded reliable messages: delivery stays exactly-once and in
    order, and what the receiver keeps to get there is one watermark per
    lane -- it cannot grow with lifetime traffic, and nothing has to be
    evicted from it."""
    from repro.sdn.channel import FaultModel, RetryPolicy

    chan = ControlChannel(sim, latency=0.002, retry_policy=RetryPolicy(timeout=0.02))
    chan.inject_faults(FaultModel(seed=11, drop_prob=0.1))
    got = []
    chan.register("ctrl", lambda m: got.append(m.body["n"]))
    for n in range(10_000):
        sim.schedule(n * 0.01, chan.send, "sw", "ctrl", "alert", {"n": n}, True)
    sim.run()
    assert got == list(range(10_000))
    assert chan.retries > 0 and chan.duplicates > 0
    assert chan._marks == {("sw", "ctrl"): 10_000}
    assert chan.unacked() == 0 and sim.events_pending() == 0


def test_acks_lost_for_40ms_do_not_duplicate_a_5000_send_burst(sim):
    """The burst that overflowed the old per-id dedup table (every message
    delivered twice) is delivered exactly once, in order."""
    chan = ControlChannel(sim, latency=0.002)
    chan.partition(0.0, 0.04, endpoints=("sw",))  # acks travel to "sw"
    got = []
    chan.register("ctrl", lambda m: got.append(m.body["n"]))
    for n in range(5_000):
        chan.send("sw", "ctrl", "alert", {"n": n}, reliable=True)
    sim.run()
    assert got == list(range(5_000))
    assert chan.duplicates > 0 and chan.acked == 5_000
    assert chan.unacked() == 0 and sim.events_pending() == 0


@pytest.mark.parametrize("outage", [30.0, 300.0])
def test_reliable_alert_into_a_long_partition_arrives_once_after_heal(sim, outage):
    """No give-up: the lane waits the partition out at capped backoff, then
    delivers once -- within one backoff cap of the heal."""
    from repro.sdn.channel import BACKOFF_CAP

    chan = ControlChannel(sim, latency=0.002)
    chan.partition(1.0, 1.0 + outage, endpoints=("ctrl",))
    got = []
    chan.register("ctrl", lambda m: got.append(sim.now))
    sim.schedule(2.0, chan.send, "cluster", "ctrl", "alert", {"device": "cam"}, True)
    sim.run()
    assert len(got) == 1
    assert 1.0 + outage <= got[0] <= 1.0 + outage + BACKOFF_CAP + 0.01
    assert chan.giveups == 0 and chan.dropped == 0  # nothing sent into the dark
    assert chan.unacked() == 0


def test_a_lane_waits_for_its_receiver_to_register(sim):
    """Records for an unregistered endpoint stay on the lane and go out
    the moment a handler registers (a restarted controller)."""
    chan = ControlChannel(sim, latency=0.002)
    for n in range(3):
        chan.send("cluster", "ctrl", "alert", {"n": n}, reliable=True)
    sim.run(until=30.0)
    assert chan.unacked() == 3 and chan.undeliverable > 0
    got = []
    chan.register("ctrl", lambda m: got.append((sim.now, m.body["n"])))
    sim.run()
    assert got == [(30.002, 0), (30.002, 1), (30.002, 2)]
    assert chan.unacked() == 0 and sim.events_pending() == 0


# ----------------------------------------------------------------------
# The fire-and-forget path (unreliable send, no fault model installed)
# schedules its delivery directly; these pin what it must still honour.
# ----------------------------------------------------------------------
def test_handler_is_resolved_at_delivery_time(sim):
    chan = ControlChannel(sim, latency=0.05)
    first, second = [], []
    chan.register("ctrl", first.append)
    chan.send("a", "ctrl", "x")
    sim.schedule(0.01, chan.register, "ctrl", second.append)  # e.g. a failover
    chan.send("a", "gone", "x")
    chan.register("gone", first.append)
    sim.schedule(0.01, chan.unregister, "gone")
    sim.run()
    assert first == [] and [m.kind for m in second] == ["x"]
    assert (chan.sent, chan.delivered, chan.undeliverable) == (2, 1, 1)


def test_faults_injected_mid_flight_do_not_touch_a_message_already_sent(sim):
    chan = ControlChannel(sim, latency=0.05)
    got = []
    chan.register("ctrl", lambda m: got.append(sim.now))
    chan.send("a", "ctrl", "x")
    model = FaultModel(jitter=0.5)
    model.add_partition(0.0, 10.0)
    sim.schedule(0.01, chan.inject_faults, model)
    sim.run()
    assert got == [0.05] and chan.dropped == 0


def test_benign_fault_model_changes_nothing(sim):
    """``FaultModel()`` drops nothing and delays nothing, so the channel
    with one installed is observably the channel with none."""
    def run(model):
        local = Simulator()
        chan = ControlChannel(local, latency=0.002)
        chan.set_latency_to("cloud", 0.1)
        chan.inject_faults(model)
        got = []
        for name in ("ctrl", "cloud"):
            chan.register(name, lambda m, n=name: got.append((local.now, n, m.kind, m.body)))
        body = {"device": "cam", "detail": {"state": "idle"}}
        for i, to in enumerate(("ctrl", "cloud", "ghost", "ctrl")):
            local.schedule(0.5 * i, chan.send, "cluster", to, f"k{i}", body)
        local.schedule(0.6, body.__setitem__, "device", "mutated-after-two-sends")
        local.run()
        counters = (chan.sent, chan.delivered, chan.undeliverable, chan.dropped, chan.retries)
        return got, counters, local.events_processed

    bare = run(None)
    assert run(FaultModel()) == bare
    got, counters, __ = bare
    assert [(at, to) for at, to, __, __ in got] == [
        (0.002, "ctrl"), (0.6, "cloud"), (1.502, "ctrl")
    ]
    assert got[0][3]["device"] == "cam"  # body copied when sent
    assert got[2][3]["device"] == "mutated-after-two-sends"
    assert counters == (4, 3, 1, 0, 0)


def test_nan_config_rejected(sim):
    """The fast path pushes ``now + latency`` unchecked, so a NaN latency
    must fail where it is set, not at the first send."""
    with pytest.raises(ValueError):
        ControlChannel(sim, latency=math.nan)
    with pytest.raises(ValueError):
        ControlChannel(sim).set_latency_to("x", math.nan)
    with pytest.raises(ValueError):
        FaultModel(jitter=math.nan)
    with pytest.raises(ValueError):
        FaultModel().add_partition(math.nan, 1.0)
    with pytest.raises(ValueError):
        FaultModel().add_partition(0.0, math.nan)


def test_infinite_jitter_rejected_but_an_endless_partition_is_not(sim):
    with pytest.raises(ValueError):
        FaultModel(jitter=math.inf)
    chan = ControlChannel(sim)
    chan.partition(1.0, math.inf)
    sim.run(until=1e12)
    assert not chan.reachable("ctrl")


def test_partition_window_is_half_open_and_scoped_to_its_endpoints():
    model = FaultModel()
    model.add_partition(1.0, 2.0, ("sw",))
    model.add_partition(5.0, 6.0)
    assert [model.partitioned(t, "sw") for t in (0.5, 1.0, 1.5, 2.0)] == [
        False, True, True, False
    ]
    assert not model.partitioned(1.5, "ctrl")
    assert model.partitioned(5.0, "ctrl") and not model.partitioned(6.0, "ctrl")
    assert model.drop_reason(1.5, "sw") == "partition"
    assert model.drop_reason(1.5, "ctrl") is None


# ----------------------------------------------------------------------
# The lane property: whatever the wire and the endpoints do
# ----------------------------------------------------------------------
_ENDS = ("x", "y")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    drop_prob=st.sampled_from([0.0, 0.1, 0.3, 0.5]),
    jitter=st.sampled_from([0.0, 0.004, 0.03]),
    partitions=st.lists(
        st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 5.0), st.sampled_from([None, *_ENDS, "a"])),
        max_size=3,
    ),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["send", "call", "down", "up"]),
            st.sampled_from(["a", "b"]),
            st.sampled_from(_ENDS),
            st.floats(0.0, 0.05),
        ),
        max_size=40,
    ),
)
def test_lanes_deliver_each_message_once_in_send_order(seed, drop_prob, jitter, partitions, ops):
    """Random reliable sends and calls over drops, jitter, partitions and a
    receiver that unregisters and comes back: every lane's messages reach
    the receiver exactly once, in send order, and once the run is quiet no
    lane holds a record and no timer is pending."""
    sim = Simulator()
    chan = ControlChannel(sim, latency=0.002)
    model = FaultModel(seed=seed, drop_prob=drop_prob, jitter=jitter)
    for start, length, end in partitions:
        model.add_partition(start, start + length, (end,) if end else None)
    chan.inject_faults(model)
    got: dict[tuple[str, str], list[int]] = {}
    sent: dict[tuple[str, str], int] = {}

    def handler(to):
        return lambda m: got.setdefault((m.sender, to), []).append(m.body["n"])

    def note(lane, n):
        got.setdefault(lane, []).append(n)

    for end in _ENDS:
        chan.register(end, handler(end))
    at = 0.0
    for op, sender, to, gap in ops:
        at += gap
        if op == "down":
            sim.schedule_at(at, chan.unregister, to)
        elif op == "up":
            sim.schedule_at(at, chan.register, to, handler(to))
        else:
            n = sent[(sender, to)] = sent.get((sender, to), 0)
            sent[(sender, to)] += 1
            if op == "send":
                sim.schedule_at(at, chan.send, sender, to, "k", {"n": n}, True)
            else:
                fn = partial(note, (sender, to), n)
                sim.schedule_at(at, chan.call, sender, to, fn, "rpc", True)
    for end in _ENDS:  # everyone is back in the end
        sim.schedule_at(at + 0.1, chan.register, end, handler(end))
    sim.run()
    assert got == {lane: list(range(count)) for lane, count in sent.items()}
    assert chan.unacked() == 0 and sim.events_pending() == 0
    assert all(lane.depth() == 0 and lane.timer is None for lane in chan._lanes.values())
