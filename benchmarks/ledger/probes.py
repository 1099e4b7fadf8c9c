"""Isolated probes: one public operation of one layer, ns (or us/ms) a call.

Each probe builds its own fixture from the repo's public API and hands
back ``batch(n)``, which performs the operation ``n`` times and returns
the wall seconds *it* attributes to the operation (fixture resets between
operations stay outside).  The runner sizes ``n`` so a batch lasts at
least the target, runs the batches between calibration spins (see
hostclock.py) and reports the median batch.

Where the traced run says how much of a workload a layer is, these say
what one call of it costs on its own -- the number a micro-optimisation
moves first.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from typing import Any, Callable

import hostclock
import workloads
from repro.core.ha import Checkpoint
from repro.core.orchestrator import build_recommended_posture
from repro.mboxes.base import MboxHost
from repro.mboxes.manager import MboxManager
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch
from repro.obs.journal import Journal
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.policy.pruning import PrunedPolicy
from repro.sdn.channel import ControlChannel, ControlMessage
from repro.sdn.flowrule import Action, FlowMatch, FlowRule
from repro.sdn.tunnel import detunnel, tunnel_packet

Batch = Callable[[int], float]
_perf = time.perf_counter

#: Full effort: this many batches of at least this long (the issue's floor).
BATCHES = 7
BATCH_S = 0.050


def _timed(fn: Callable[[], Any]) -> float:
    start = _perf()
    fn()
    return _perf() - start


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
def _site(workload: str, devices: int | None = None) -> workloads.World:
    """A built site of one workload's shape, no attack waves, settled."""
    spec = workloads.WORKLOADS[workload]
    if devices is not None:
        spec = dataclasses.replace(spec, devices=devices)
    world = workloads.World(spec, workloads.generate_inputs(spec, 0, horizon=0.0), horizon=0.0)
    # Postures boot, the opening attacks play out and every device has
    # started reporting; then the fleet goes quiet for the probe.
    world.sim.run(until=spec.telemetry_period + 0.2)
    world.stop_traffic()
    world.sim.run(until=world.sim.now + 1.0)
    return world


def _device_rules(device: str, device_port: int, cluster_port: int) -> list[FlowRule]:
    """The orchestrator's four rules per secured device (see its docstring)."""
    return [
        FlowRule(FlowMatch(dst=device, in_port=cluster_port), (Action.controller(),), 900),
        FlowRule(FlowMatch(src=device, in_port=cluster_port), (Action.controller(),), 890),
        FlowRule(FlowMatch(dst=device), (Action.tunnel(device, cluster_port, via="cluster"),), 500),
        FlowRule(FlowMatch(src=device), (Action.tunnel(device, cluster_port, via="cluster"),), 500),
    ]


def _table(devices: int) -> Switch:
    switch = Switch("edge", Simulator())
    rules: list[FlowRule] = []
    for i in range(devices):
        rules.extend(_device_rules(f"dev{i}", i + 1, 0))
    switch.install_many(rules)
    return switch


def _report(device: str, dst: str = "hub") -> Packet:
    return Packet(
        src=device,
        dst=dst,
        protocol="udp",
        dport=5683,
        payload={"action": "telemetry", "state": "idle", "readings": {"temp": "normal"}},
    )


# ----------------------------------------------------------------------
# netsim
# ----------------------------------------------------------------------
def sim_dispatch() -> Batch:
    sim = Simulator()
    for __ in range(100):
        sim.every(0.01, lambda: None)
    return lambda n: _timed(lambda: sim.run(max_events=n))


def link_hop() -> Batch:
    sim = Simulator()
    a, b = Node("a", sim), Node("b", sim)
    Link(sim, a, b)

    def batch(n: int) -> float:
        packets = [Packet("a", "b") for __ in range(n)]

        def go() -> None:
            for packet in packets:
                a.send(packet)
            sim.run()

        return _timed(go)

    return batch


def _lookup(devices: int, keys: int) -> Batch:
    switch = _table(devices)
    packets = [_report(f"dev{i % devices}", f"peer{i}") for i in range(keys)]

    def batch(n: int) -> float:
        lookup = switch.lookup

        def go() -> None:
            for i in range(n):
                lookup(packets[i % keys], 7)

        return _timed(go)

    return batch


def switch_lookup_hit() -> Batch:
    return _lookup(devices=80, keys=64)


def switch_lookup_miss() -> Batch:
    # 4,000 rules; the key cycle is twice the 1,024-entry cache, so every
    # key has been cleared out again before it comes round.
    return _lookup(devices=1000, keys=2048)


def switch_install() -> Batch:
    switch = _table(80)
    packet = _report("new0")

    def batch(n: int) -> float:
        elapsed = 0.0
        for __ in range(n):
            rules = _device_rules("new0", 99, 0)
            start = _perf()
            switch.install_many(rules)
            switch.lookup(packet, 99)
            elapsed += _perf() - start
            switch.remove_where(lambda rule: rule in rules)
        return elapsed

    return batch


def switch_forward() -> Batch:
    sim = Simulator()
    switch, sink = Switch("edge", sim), Node("hub", sim)
    link = Link(sim, switch, sink)
    switch.install(FlowRule(FlowMatch(dst="hub"), (Action.forward(link.port_a),), 100))

    def batch(n: int) -> float:
        packets = [_report("dev0") for __ in range(n)]

        def go() -> None:
            for packet in packets:
                switch.on_packet(packet, 5)

        elapsed = _timed(go)
        sim.run()
        return elapsed

    return batch


# ----------------------------------------------------------------------
# sdn.tunnel
# ----------------------------------------------------------------------
def tunnel_encap() -> Batch:
    packet = _report("dev0")

    def batch(n: int) -> float:
        def go() -> None:
            for __ in range(n):
                tunnel_packet(packet, "edge", "dev0")

        return _timed(go)

    return batch


def tunnel_decap() -> Batch:
    outer = tunnel_packet(_report("dev0"), "edge", "dev0")

    def batch(n: int) -> float:
        def go() -> None:
            for __ in range(n):
                detunnel(outer)

        return _timed(go)

    return batch


# ----------------------------------------------------------------------
# mboxes
# ----------------------------------------------------------------------
def _inspect(mitigation: str, make_inner: Callable[[], Packet]) -> Batch:
    """``MboxHost.on_packet`` for one tunnelled packet through one posture."""

    def batch(n: int) -> float:
        sim = Simulator()
        host, edge = MboxHost("cluster", sim), Node("edge", sim)
        link = Link(sim, host, edge)
        manager = MboxManager(sim, host)
        posture = build_recommended_posture(
            mitigation, "dev0", trusted_sources=("hub",), sku="probe:sku:1"
        )
        manager.deploy("dev0", posture)
        sim.run()
        outers = []
        for __ in range(n):
            outer = tunnel_packet(make_inner(), "edge", "dev0")
            outer.dst = "cluster"
            outers.append(outer)

        def go() -> None:
            for outer in outers:
                host.on_packet(outer, link.port_a)

        elapsed = _timed(go)
        sim.run()
        return elapsed

    return batch


def inspect_monitor() -> Batch:
    return _inspect("monitor", lambda: _report("dev0"))


def inspect_firewall() -> Batch:
    return _inspect("stateful_firewall", lambda: _report("dev0"))


def inspect_proxy() -> Batch:
    return _inspect("password_proxy", lambda: _report("dev0"))


def inspect_drop() -> Batch:
    def attack() -> Packet:
        return Packet("attacker", "dev0", protocol="iot", dport=49153, payload={"cmd": "on"})

    return _inspect("stateful_firewall", attack)


def manager_deploy() -> Batch:
    def batch(n: int) -> float:
        sim = Simulator()
        manager = MboxManager(sim, MboxHost("cluster", sim), capacity=n + 1)
        postures = [
            build_recommended_posture("monitor", f"dev{i}", sku="probe:sku:1") for i in range(n)
        ]

        def go() -> None:
            for i, posture in enumerate(postures):
                manager.deploy(f"dev{i}", posture)

        return _timed(go)

    return batch


# ----------------------------------------------------------------------
# sdn.channel
# ----------------------------------------------------------------------
def _channel_send(reliable: bool) -> Batch:
    sim = Simulator()
    channel = ControlChannel(sim)
    channel.register("controller", lambda message: None)
    body = {"device": "dev0", "kind": "telemetry", "detail": {"state": "idle"}}

    def batch(n: int) -> float:
        def go() -> None:
            for __ in range(n):
                channel.send("cluster", "controller", "alert", body, reliable=reliable)
            sim.run()  # delivery (and, when reliable, dedup + ack) is part of a send

        return _timed(go)

    return batch


def channel_send_unreliable() -> Batch:
    return _channel_send(False)


def channel_send_reliable() -> Batch:
    return _channel_send(True)


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------
def _alert(device: str, kind: str, detail: dict[str, Any], at: float) -> ControlMessage:
    return ControlMessage(
        kind="alert",
        sender="cluster",
        body={"device": device, "kind": kind, "mbox": "mbox-1", "detail": detail, "trace": None},
        sent_at=at,
    )


def _controller_ingest(kind: str, detail: dict[str, Any]) -> Batch:
    world = _site("home-steady")
    controller, now = world.dep.controller, world.sim.now
    messages = [_alert(f"dev{i}", kind, detail, now) for i in range(80)]

    def batch(n: int) -> float:
        handle = controller.on_control_message

        def go() -> None:
            for i in range(n):
                handle(messages[i % 80])

        return _timed(go)

    return batch


def controller_telemetry_ingest() -> Batch:
    return _controller_ingest("telemetry", {"state": "idle", "readings": {"temp": "normal"}})


def controller_alert_ingest() -> Batch:
    # A journaled, traced-if-asked security alert that no escalation rule
    # names: ingest cost without a posture change behind it.
    return _controller_ingest("command-blocked", {"cmd": "open", "src": "attacker"})


def pipeline_escalation_round() -> Batch:
    """Escalating alert -> context -> evaluation round -> posture applied."""
    world = _site("attack-storm")
    controller, sim = world.dep.controller, world.sim

    def batch(n: int) -> float:
        elapsed = 0.0
        for i in range(n):
            device = f"dev{i % 80}"
            message = _alert(device, "signature-match", {"src": "attacker"}, sim.now)
            start = _perf()
            controller.on_control_message(message)
            elapsed += _perf() - start
            controller.clear_context(device)
            sim.run(until=sim.now + 0.01)  # let both reconfigures land
        return elapsed

    return batch


def orchestrator_apply() -> Batch:
    world = _site("home-steady")
    orchestrator = world.dep.orchestrator
    device = "dev2"  # a thermostat: monitor in E9's mix
    swap = [
        build_recommended_posture("stateful_firewall", device, trusted_sources=("hub",)),
        orchestrator.posture_of(device),
    ]

    def batch(n: int) -> float:
        def go() -> None:
            for i in range(n):
                orchestrator.apply(device, swap[i % 2])

        elapsed = _timed(go)
        world.sim.run(until=world.sim.now + 0.01)
        return elapsed

    return batch


def _pruning_lookup(devices: int) -> Batch:
    world = _site("attack-storm", devices)
    pipeline = world.dep.controller.pipeline
    pruned: PrunedPolicy = pipeline.pruned
    state = pipeline.system_state()

    def batch(n: int) -> float:
        lookup = pruned.posture_for

        def go() -> None:
            for i in range(n):
                lookup(state, f"dev{i % devices}")

        return _timed(go)

    return batch


def pruning_lookup_80() -> Batch:
    return _pruning_lookup(80)


def pruning_lookup_1k() -> Batch:
    return _pruning_lookup(1000)


def ha_checkpoint() -> Batch:
    controller = _site("partition-replay").dep.controller

    def batch(n: int) -> float:
        def go() -> None:
            for __ in range(n):
                Checkpoint.capture(controller)

        return _timed(go)

    return batch


def _deployment_setup(workload: str) -> Batch:
    spec = workloads.WORKLOADS[workload]
    inputs = workloads.generate_inputs(spec, 0, horizon=0.0)

    def batch(n: int) -> float:
        def go() -> None:
            for __ in range(n):
                workloads.World(spec, inputs, horizon=0.0)

        return _timed(go)

    return batch


def deployment_setup_80() -> Batch:
    return _deployment_setup("home-steady")


def deployment_setup_1k() -> Batch:
    return _deployment_setup("fleet-1k")


# ----------------------------------------------------------------------
# obs
# ----------------------------------------------------------------------
def _journal_record(enabled: bool) -> Batch:
    journal = Journal(clock=lambda: 1.0, enabled=enabled)

    def batch(n: int) -> float:
        record = journal.record

        def go() -> None:
            for i in range(n):
                record("verdict", device="dev0", verdict="drop", mbox="mbox-1", pkt=i, dport=80)

        return _timed(go)

    return batch


def journal_record() -> Batch:
    return _journal_record(True)


def journal_record_disabled() -> Batch:
    return _journal_record(False)


def registry_counter_inc() -> Batch:
    counter = MetricsRegistry().counter("probe_total", layer="probe")

    def batch(n: int) -> float:
        inc = counter.inc

        def go() -> None:
            for __ in range(n):
                inc()

        return _timed(go)

    return batch


def registry_snapshot() -> Batch:
    metrics = _site("home-steady").sim.metrics

    def batch(n: int) -> float:
        def go() -> None:
            for __ in range(n):
                metrics.snapshot()

        return _timed(go)

    return batch


def trace_span() -> Batch:
    tracer = Tracer()

    def batch(n: int) -> float:
        def go() -> None:
            trace = None
            for i in range(n):
                if i % 8 == 0:  # chains here are about eight spans long
                    trace = tracer.start_trace(device="dev0", kind="probe")
                tracer.span(trace, "evaluate", 1.0, 1.5, device="dev0", round=i)

        return _timed(go)

    return batch


def _stream_body(device: str) -> dict[str, Any]:
    return {
        "device": device,
        "kind": "telemetry",
        "mbox": "mbox-1",
        "detail": {"state": "idle", "readings": {"temp": "normal"}},
        "trace": None,
    }


#: Records per burst in the stream probes: under the lanes' and the
#: ingest queue's capacity, so neither eviction nor shedding is what gets
#: timed; the backlog drains off the clock between bursts.
STREAM_BURST = 1024
STREAM_BATCH = 64


def stream_offer() -> Batch:
    world = _site("partition-replay")
    stream, sim = world.dep.host_stream, world.sim
    body = _stream_body("dev0")

    def burst() -> None:
        for __ in range(STREAM_BURST):
            stream.offer("telemetry", body)

    def batch(n: int) -> float:
        bursts = -(-n // STREAM_BURST)
        elapsed = 0.0
        for __ in range(bursts):
            elapsed += _timed(burst)
            sim.run(until=sim.now + 2.0)  # ship, consume and ack the backlog
        return elapsed * n / (bursts * STREAM_BURST)

    return batch


def stream_batch() -> Batch:
    """``StreamConsumer.on_batch`` per record, in-order batches of 64."""
    world = _site("partition-replay")
    consumer, sim = world.dep.controller.stream, world.sim
    offset = 0

    def burst() -> float:
        nonlocal offset
        messages = []
        for __ in range(STREAM_BURST // STREAM_BATCH):
            records = [
                {"offset": offset + k + 1, "at": sim.now, "body": _stream_body(f"dev{k % 80}")}
                for k in range(STREAM_BATCH)
            ]
            body = {"host": "probe-host", "lane": "bulk", "base": offset, "records": records}
            messages.append(ControlMessage("stream", "probe-host", body, sent_at=sim.now))
            offset += STREAM_BATCH

        def go() -> None:
            for message in messages:
                consumer.on_batch(message)

        elapsed = _timed(go)
        sim.run(until=sim.now + 3.0)  # the ingest queue drains off the clock
        return elapsed

    def batch(n: int) -> float:
        bursts = -(-n // STREAM_BURST)
        return sum(burst() for __ in range(bursts)) * n / (bursts * STREAM_BURST)

    return batch


def slo_tick() -> Batch:
    world = _site("partition-replay")
    trackers, sim = world.dep.health_plane.slos.trackers, world.sim

    ticks = 0

    def batch(n: int) -> float:
        nonlocal ticks

        def go() -> None:
            for k in range(n):
                now = sim.now + ticks + k  # one tick a simulated second
                for tracker in trackers:
                    tracker.evaluate(now)

        elapsed = _timed(go)
        ticks += n
        return elapsed

    return batch


#: name -> (fixture builder, display unit, seconds-per-call multiplier)
PROBES: dict[str, tuple[Callable[[], Batch], str, float]] = {
    "netsim.sim.dispatch_ns": (sim_dispatch, "ns", 1e9),
    "netsim.link.hop_ns": (link_hop, "ns", 1e9),
    "netsim.switch.lookup_hit_ns": (switch_lookup_hit, "ns", 1e9),
    "netsim.switch.lookup_miss_ns": (switch_lookup_miss, "ns", 1e9),
    "netsim.switch.install_ns": (switch_install, "ns", 1e9),
    "netsim.switch.forward_ns": (switch_forward, "ns", 1e9),
    "sdn.tunnel.encap_ns": (tunnel_encap, "ns", 1e9),
    "sdn.tunnel.decap_ns": (tunnel_decap, "ns", 1e9),
    "mboxes.host.inspect_monitor_ns": (inspect_monitor, "ns", 1e9),
    "mboxes.host.inspect_firewall_ns": (inspect_firewall, "ns", 1e9),
    "mboxes.host.inspect_proxy_ns": (inspect_proxy, "ns", 1e9),
    "mboxes.host.inspect_drop_ns": (inspect_drop, "ns", 1e9),
    "mboxes.manager.deploy_ns": (manager_deploy, "ns", 1e9),
    "sdn.channel.send_unreliable_ns": (channel_send_unreliable, "ns", 1e9),
    "sdn.channel.send_reliable_ns": (channel_send_reliable, "ns", 1e9),
    "core.controller.telemetry_ingest_ns": (controller_telemetry_ingest, "ns", 1e9),
    "core.controller.alert_ingest_ns": (controller_alert_ingest, "ns", 1e9),
    "core.pipeline.escalation_round_ns": (pipeline_escalation_round, "ns", 1e9),
    "core.orchestrator.apply_ns": (orchestrator_apply, "ns", 1e9),
    "policy.pruning.lookup_ns_80": (pruning_lookup_80, "ns", 1e9),
    "policy.pruning.lookup_ns_1k": (pruning_lookup_1k, "ns", 1e9),
    "obs.journal.record_ns": (journal_record, "ns", 1e9),
    "obs.journal.record_disabled_ns": (journal_record_disabled, "ns", 1e9),
    "obs.registry.counter_inc_ns": (registry_counter_inc, "ns", 1e9),
    "obs.registry.snapshot_ms": (registry_snapshot, "ms", 1e3),
    "obs.trace.span_ns": (trace_span, "ns", 1e9),
    "obs.stream.offer_ns": (stream_offer, "ns", 1e9),
    "obs.stream.batch_ns_per_record": (stream_batch, "ns", 1e9),
    "core.ha.checkpoint_ms": (ha_checkpoint, "ms", 1e3),
    "obs.slo.tick_us": (slo_tick, "us", 1e6),
    # one call builds the whole fleet; divided down so both read per device
    "core.deployment.setup_ms_per_device_80": (deployment_setup_80, "ms", 1e3 / 80),
    "core.deployment.setup_ms_per_device_1k": (deployment_setup_1k, "ms", 1e3 / 1000),
}


def run_probe(name: str, effort: float = 1.0) -> dict[str, Any]:
    """Median reference time per call over the batches.

    ``effort`` in (0, 1] shortens the batches and, below 1, thins them
    (never under three); at 1 it is the issue's seven batches of 50 ms.
    """
    make, unit, per_second = PROBES[name]
    batch = make()
    target = BATCH_S * effort
    batches = max(3, round(BATCHES * effort))
    n, raw = 1, batch(1)
    while raw < target:
        # aim a fifth past the target; never more than x10 a step
        n = max(n + 1, int(n * min(10.0, 1.2 * target / max(raw, 1e-7))))
        raw = batch(n)
    samples = []
    for __ in range(batches):
        gc.collect()
        before = hostclock.spin()
        raw = batch(n)
        after = hostclock.spin()
        samples.append(raw * hostclock.SPIN_REF_S * 2 / (before + after) / n * per_second)
    return {
        "value": statistics.median(samples),
        "unit": unit,
        "samples": len(samples),
        "calls_per_batch": n,
        "min": min(samples),
        "max": max(samples),
    }
