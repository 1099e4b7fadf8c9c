"""Microbenchmarks of the hot-path data structures.

These are true pytest-benchmark microbenchmarks (statistical timing of a
single operation), unlike the scenario benches.  They guard the structures
every packet or policy decision touches:

- flow-table lookup at realistic table sizes,
- signature matching against an IDS rule set,
- SystemState construction/hash (built once per policy evaluation),
- pruned policy lookup,
- one full end-to-end packet round trip through a tunnel + µmbox,

plus one bench per hot-path refactor win, so each stays won:

- schedule/fire with the list heap entry (``[time, seq, fn, args]``),
- slotted ``Packet`` construction,
- interned flow-key lookup (cache hit),
- buffered journal append (the amortized write path),
- megaflow-cached flow-table lookup (the one-dict-probe fast path).
"""

from __future__ import annotations

import random

from repro.learning.signatures import (
    backdoor_signature,
    default_credential_signature,
    dns_amplification_signature,
)
from repro.mboxes.base import MboxContext
from repro.mboxes.ids import SignatureIDS
from repro.netsim.packet import Packet, flow_key, intern_flow
from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch
from repro.obs.journal import Journal
from repro.policy.builder import PolicyBuilder
from repro.policy.context import COMPROMISED, SUSPICIOUS, SystemState
from repro.policy.posture import block_commands, quarantine
from repro.policy.pruning import PrunedPolicy
from repro.sdn.flowrule import Action, FlowMatch, FlowRule


def test_flow_table_lookup_64_rules(benchmark):
    sim = Simulator()
    switch = Switch("sw", sim)
    for i in range(16):
        device = f"dev{i}"
        switch.install(FlowRule(
            match=FlowMatch(dst=device, in_port=1), actions=(Action.normal(),), priority=900,
        ))
        switch.install(FlowRule(
            match=FlowMatch(src=device, in_port=1), actions=(Action.normal(),), priority=890,
        ))
        switch.install(FlowRule(
            match=FlowMatch(dst=device), actions=(Action.drop(),), priority=500,
        ))
        switch.install(FlowRule(
            match=FlowMatch(src=device), actions=(Action.drop(),), priority=500,
        ))
    packet = Packet(src="attacker", dst="dev9", dport=8080)
    result = benchmark(switch.lookup, packet, 3)
    assert result is not None and result.priority == 500


def test_flow_table_lookup_megaflow_hit(benchmark):
    """Repeated lookup of one concrete 5-tuple: the megaflow-cache hit.

    The first lookup scans the bucketed table and caches the winner; every
    later identical lookup must be a single dict probe.  Any table change
    clears the cache (correctness over retention).
    """
    sim = Simulator()
    switch = Switch("sw", sim)
    for i in range(16):
        device = f"dev{i}"
        switch.install(FlowRule(
            match=FlowMatch(dst=device), actions=(Action.drop(),), priority=500,
        ))
    packet = Packet(src="attacker", dst="dev9", dport=8080)
    warm = switch.lookup(packet, 3)  # populate the cache
    result = benchmark(switch.lookup, packet, 3)
    assert result is warm and result.priority == 500
    assert len(switch._lookup_cache) == 1
    switch.install(FlowRule(
        match=FlowMatch(dst="dev9", dport=8080), actions=(Action.drop(),), priority=400,
    ))
    assert len(switch._lookup_cache) == 0  # install invalidates


def test_signature_ids_match_30_rules(benchmark):
    sim = Simulator()
    signatures = []
    for i in range(10):
        signatures.append(default_credential_signature(f"sku{i}"))
        signatures.append(backdoor_signature(f"sku{i}", 40000 + i))
        signatures.append(dns_amplification_signature(f"sku{i}"))
    ids = SignatureIDS(signatures, drop_on_match=False)
    ctx = MboxContext(
        sim=sim, mbox_name="m", device="d",
        view=lambda k: None, emit_alert=lambda a: None,
    )
    packet = Packet(
        src="attacker", dst="cam", protocol="http", dport=80,
        payload={"action": "login", "username": "admin", "password": "admin"},
    )
    packet.direction = "to_device"
    benchmark(ids.process, packet, ctx)


def test_system_state_construction(benchmark):
    assignment = {f"ctx:dev{i}": "normal" for i in range(20)}
    assignment.update({f"env:var{i}": "low" for i in range(6)})

    def build():
        state = SystemState(assignment)
        return hash(state)

    benchmark(build)


def test_pruned_policy_lookup_30_devices(benchmark):
    builder = PolicyBuilder()
    devices = [f"dev{i}" for i in range(30)]
    for name in devices:
        builder.device(name)
    builder.env("occupancy", ("absent", "present"))
    for i, name in enumerate(devices):
        builder.when(f"ctx:{name}", COMPROMISED).give(name, quarantine(name), priority=300)
        builder.when(f"ctx:{devices[(i + 1) % 30]}", SUSPICIOUS).give(
            name, block_commands("on", name=f"g{i}"), priority=200
        )
    policy = builder.build()
    pruned = PrunedPolicy(policy)
    rng = random.Random(0)
    state = SystemState(
        {
            d.variable.key: rng.choice(d.values)
            for d in policy.space.domains
        }
    )
    benchmark(pruned.posture_for, state, "dev7")


def test_event_entry_schedule_fire(benchmark):
    """Schedule + fire 100 events, each one plain list that is both the
    heap entry and the handle: the per-event floor of the whole simulator.
    """
    sim = Simulator(observe=False)

    def tick() -> None:
        pass

    def batch():
        handles = [sim.schedule(0.001 * i, tick) for i in range(100)]
        sim.run()
        return handles

    handles = benchmark(batch)
    assert sim._heap == []  # nothing is kept back: no pool, no leftovers
    fired = []
    sim.schedule(0.0, fired.append, "live")
    for handle in handles:
        sim.cancel(handle)  # fired handles: inert, whatever was scheduled since
    sim.run()
    assert fired == ["live"]


def test_slotted_packet_construction(benchmark):
    """Packet is a hand-slotted class: building one must stay dict-free."""

    def build():
        return Packet(
            src="attacker", dst="cam", protocol="http", dport=80,
            payload={"action": "login"},
        )

    packet = benchmark(build)
    assert not hasattr(packet, "__dict__")


def test_flow_key_cache_hit(benchmark):
    """Interned Flow lookup: a cache hit allocates nothing new."""
    packet = Packet(src="cam", dst="hub", protocol="udp", sport=5353, dport=5353)
    first = intern_flow(
        packet.src, packet.dst, packet.protocol, packet.sport, packet.dport
    )

    def hit():
        return packet.flow

    flow = benchmark(hit)
    assert flow is first  # same interned object, not an equal copy
    assert flow_key(packet) == (
        packet.src, packet.dst, packet.protocol, packet.sport, packet.dport
    )


def test_buffered_journal_append(benchmark):
    """The amortized write path: one raw-tuple append per record call.

    Segment-boundary bookkeeping (roll + evict) amortizes across
    ``segment_size`` appends; the benchmark covers full segments so the
    measured figure includes that amortized share.
    """
    journal = Journal(clock=lambda: 0.0, segment_size=512, max_segments=8)

    def append_segment():
        for __ in range(512):
            journal.record("verdict", device="cam", verdict="drop", pkt=7)

    benchmark(append_segment)
    assert journal.recorded >= 512
    assert len(journal) <= 512 * (8 + 1)  # retention stays bounded


def test_end_to_end_packet_round_trip(benchmark):
    """One attacker packet through tunnel -> µmbox -> verdict, per round."""
    from repro.core.deployment import SecuredDeployment
    from repro.devices import protocol
    from repro.devices.library import smart_plug

    dep = SecuredDeployment.build()
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    dep.secure("plug", block_commands("on"))
    dep.run(until=0.5)

    def round_trip():
        attacker.fire_and_forget(
            protocol.command("attacker", "plug", "on", dport=8080)
        )
        # bounded: the environment ticker keeps the queue alive forever,
        # so an unbounded run() would never return
        dep.sim.run(until=dep.sim.now + 2.0)

    benchmark.pedantic(round_trip, rounds=50, iterations=1)
    assert dep.devices["plug"].state == "off"
