"""Tests for the control channel."""

import math

import pytest

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
# Bounded receiver-side dedup
# ---------------------------------------------------------------------------
def test_dedup_rejects_bad_bounds(sim):
    with pytest.raises(ValueError):
        ControlChannel(sim, dedup_ttl=0)
    with pytest.raises(ValueError):
        ControlChannel(sim, dedup_max=0)


def test_dedup_table_stays_bounded_over_10k_messages(sim):
    """10k seeded reliable messages: delivery stays exactly-once while the
    dedup table is evicted down to its size bound and expired-TTL entries
    are pruned -- the table cannot grow with lifetime traffic."""
    from repro.sdn.channel import FaultModel, RetryPolicy

    chan = ControlChannel(
        sim,
        latency=0.002,
        retry_policy=RetryPolicy(timeout=0.02, max_retries=8),
        dedup_ttl=20.0,
        dedup_max=512,
    )
    chan.inject_faults(FaultModel(seed=11, drop_prob=0.1))
    got = []
    chan.register("ctrl", lambda m: got.append(m.body["n"]))
    for n in range(10_000):
        sim.schedule(n * 0.01, chan.send, "sw", "ctrl", "alert", {"n": n}, True)
    sim.run()
    # Exactly-once to the application, despite drops + retries.
    assert sorted(got) == list(range(10_000))
    assert chan.giveups == 0 and chan.retries > 0
    # The receiver's table is bounded by size, and TTL pruned the rest.
    assert len(chan._seen["ctrl"]) <= 512
    assert chan.dedup_evictions >= 10_000 - 512
    # Evictions leave an audit trail (batched, not one entry per id; the
    # journal's own retention bounds how far back the trail reaches).
    evict_entries = sim.journal.entries(kind="ctrl-dedup-evict")
    assert evict_entries
    assert all(e.fields["evicted"] > 0 for e in evict_entries)
    assert all(e.fields["retained"] <= 512 for e in evict_entries)


def test_dedup_ttl_expires_old_entries(sim):
    from repro.sdn.channel import RetryPolicy

    chan = ControlChannel(
        sim, latency=0.001, retry_policy=RetryPolicy(), dedup_ttl=1.0
    )
    chan.register("ctrl", lambda m: None)
    chan.send("a", "ctrl", "x", reliable=True)
    sim.run(until=0.5)
    assert len(chan._seen["ctrl"]) == 1
    # A later arrival prunes everything past its TTL.
    sim.schedule(2.0, chan.send, "a", "ctrl", "y", None, True)
    sim.run()
    assert len(chan._seen["ctrl"]) == 1  # only the fresh id remains
    # Two evictions: the receiver's seen-id and the sender's acked-id,
    # both expired by the time the second exchange prunes the tables.
    assert chan.dedup_evictions == 2


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
