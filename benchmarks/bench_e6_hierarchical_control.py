"""E6: control-plane scale -- flat vs hierarchical; consistent updates.

Section 5.1 raises two control-plane challenges and sketches answers:

Part A -- responsiveness under event load.  "We can have a hierarchical
control architecture where frequently interacting components are handled
together by a low-level controller."  We drive Poisson-ish event storms at
deployments partitioned per room and compare reaction-latency percentiles
and global-controller load, flat vs two-level.  Both arms run on the real
parts: one ``ControlChannel`` with a ``global`` endpoint 20 ms away and,
in the two-level arm, a ``local-<room>`` endpoint 1 ms away per room;
each endpoint feeds its own FIFO ``IngestQueue`` (0.5 ms a message).  A
local controller forwards a crossing device's event (``crossing_devices``)
to ``global``.  Expected shape: local events are handled ~20x faster
(on-premise RTT) and the global controller sees only the cross-partition
fraction.

Part B -- consistent updates.  "Critical state ... that must be handled in
a consistent fashion does change often."  We push rule-set epochs to a
growing switch fleet with the two-phase updater vs best-effort, and report
commit time and the inconsistency window (time during which switches
disagree about the active configuration).
"""

from __future__ import annotations

import random

from _util import print_table, record

from repro.core.metrics import nearest_rank
from repro.core.overload import CLASS_MONITOR, IngestConfig, IngestQueue
from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS
from repro.policy.posture import block_commands
from repro.policy.pruning import crossing_devices
from repro.sdn.channel import ControlChannel
from repro.sdn.consistency import ConsistentUpdater
from repro.sdn.flowrule import Action, FlowMatch, FlowRule


def clustered_policy(n_rooms: int, cross_fraction: float):
    """n_rooms independent (alarm -> window) pairs; a fraction of rooms'
    windows also depend on a *global* variable, forcing escalation."""
    builder = PolicyBuilder()
    for room in range(n_rooms):
        builder.device(f"alarm{room}")
        builder.device(f"window{room}")
    builder.env("vacation", ("off", "on"))
    n_cross = int(n_rooms * cross_fraction)
    for room in range(n_rooms):
        builder.when(f"ctx:alarm{room}", SUSPICIOUS).give(
            f"window{room}", block_commands("open", name=f"g{room}")
        )
        if room < n_cross:
            builder.when("env:vacation", "on").give(
                f"window{room}", block_commands("open", "close", name=f"v{room}")
            )
    return builder.build()


def run_control(n_rooms: int, cross_fraction: float, events: int, rate: float, seed: int) -> dict:
    policy = clustered_policy(n_rooms, cross_fraction)
    # Partition by *interaction frequency* as section 5.1 proposes: each
    # room is a partition (grouping by policy independence would merge
    # every vacation-coupled room into one giant local controller).
    partition = {}
    for room in range(n_rooms):
        partition[f"alarm{room}"] = room
        partition[f"window{room}"] = room
    crossing = crossing_devices(policy, partition)
    rng = random.Random(seed)
    devices = list(policy.devices)

    def drive(placement: dict[str, int]) -> dict:
        """One arm: devices in ``placement`` report to their room's local
        controller, every other device straight to the global one."""
        sim = Simulator()
        channel = ControlChannel(sim, latency=0.020)
        config = IngestConfig(capacity=events, service_time=0.0005, prioritized=False)
        queues: list[IngestQueue] = []
        latencies: list[float] = []

        def endpoint(name: str, handler) -> IngestQueue:
            queue = IngestQueue(sim, handler, config, name=name)
            channel.register(name, lambda message: queue.offer(CLASS_MONITOR, message.body))
            queues.append(queue)
            return queue

        def handled(body: dict) -> None:
            latencies.append(sim.now - body["emitted"])

        def local(name: str):
            def triage(body: dict) -> None:
                if body["device"] in crossing:
                    channel.send(name, "global", "event", body)
                else:
                    handled(body)

            return triage

        global_queue = endpoint("global", handled)
        for room in sorted(set(placement.values())):
            name = f"local-{room}"
            channel.set_latency_to(name, 0.001)
            endpoint(name, local(name))

        def emit(device: str) -> None:
            part = placement.get(device)
            to = "global" if part is None else f"local-{part}"
            channel.send(device, to, "event", {"device": device, "emitted": sim.now})

        t = 0.0
        for __ in range(events):
            t += rng.expovariate(rate)
            device = devices[rng.randrange(len(devices))]
            sim.schedule(t, emit, device)
        sim.run()
        # The queues are bounded: a drop would shape the latencies unseen.
        assert sum(sum(queue.dropped) for queue in queues) == 0
        assert len(latencies) == events
        latencies.sort()
        return {
            "p50_ms": nearest_rank(latencies, 0.50) * 1e3,
            "p99_ms": nearest_rank(latencies, 0.99) * 1e3,
            "global_events": sum(global_queue.processed),
        }

    rng_state = rng.getstate()
    flat = drive({})
    rng.setstate(rng_state)  # identical event sequence for both arms
    hier = drive(partition)
    return {
        "rooms": n_rooms,
        "devices": len(devices),
        "rate": rate,
        "crossing": len(crossing),
        "flat": flat,
        "hier": hier,
    }


def run_consistency(n_switches: int) -> dict:
    sim = Simulator()
    channel = ControlChannel(sim, latency=0.005)
    updater = ConsistentUpdater(sim, channel)
    switches = [Switch(f"sw{i}", sim) for i in range(n_switches)]

    def rules():
        return [FlowRule(match=FlowMatch(), actions=(Action.drop(),))]

    two_phase = updater.push_two_phase({sw: rules() for sw in switches})
    sim.run()
    best_effort = updater.push_best_effort({sw: rules() for sw in switches})
    sim.run()
    return {
        "switches": n_switches,
        "two_phase_ms": two_phase.duration * 1e3,
        "best_effort_ms": best_effort.duration * 1e3,
    }


def test_e6_flat_vs_hierarchical_and_consistency(scenario_benchmark):
    control_sweep = [
        (10, 0.1, 2000, 200.0),
        (25, 0.1, 4000, 500.0),
        (50, 0.1, 8000, 1000.0),
        (50, 0.4, 8000, 1000.0),
    ]
    switch_sweep = [2, 8, 32]

    def run_all():
        control = [
            run_control(rooms, cross, events, rate, seed=i)
            for i, (rooms, cross, events, rate) in enumerate(control_sweep)
        ]
        consistency = [run_consistency(n) for n in switch_sweep]
        return control, consistency

    control, consistency = scenario_benchmark(run_all)

    print_table(
        "E6a: reaction latency and global load, flat vs hierarchical",
        [
            "Rooms",
            "Events/s",
            "Crossing devs",
            "Flat p50/p99 (ms)",
            "Hier p50/p99 (ms)",
            "Global events flat",
            "Global events hier",
        ],
        [
            (
                r["rooms"],
                int(r["rate"]),
                r["crossing"],
                f"{r['flat']['p50_ms']:.1f} / {r['flat']['p99_ms']:.1f}",
                f"{r['hier']['p50_ms']:.1f} / {r['hier']['p99_ms']:.1f}",
                r["flat"]["global_events"],
                r["hier"]["global_events"],
            )
            for r in control
        ],
    )
    print_table(
        "E6b: consistent-update commit time (5 ms control RTT legs)",
        ["Switches", "Two-phase (ms)", "Best-effort (ms)"],
        [
            (r["switches"], f"{r['two_phase_ms']:.1f}", f"{r['best_effort_ms']:.1f}")
            for r in consistency
        ],
    )
    record(scenario_benchmark, "control", control)
    record(scenario_benchmark, "consistency", consistency)

    for r in control:
        # hierarchy cuts median latency and offloads the global controller
        assert r["hier"]["p50_ms"] < r["flat"]["p50_ms"] / 2
        assert r["hier"]["global_events"] < r["flat"]["global_events"]
    # more crossing rules -> more escalation (the cost of coupling)
    same_size = [r for r in control if r["rooms"] == 50]
    assert same_size[1]["hier"]["global_events"] > same_size[0]["hier"]["global_events"]
    # two-phase pays a constant small multiple over best effort
    for r in consistency:
        assert r["two_phase_ms"] > r["best_effort_ms"]
        assert r["two_phase_ms"] <= 4 * r["best_effort_ms"]
