"""E9 (extension): whole-stack scale check.

Not a paper claim but a reproduction-quality requirement: the simulated
IoTSec stack must stay fast enough to run the other experiments at
realistic sizes.  We build homes of 10..80 devices -- all tunnelled
through monitor µmboxes, all emitting telemetry -- drive ten simulated
minutes of traffic plus an attack sweep, and report simulator throughput
(events per wall-clock second) and end-state correctness (every attack
blocked, nothing compromised).
"""

from __future__ import annotations

import time
import types

from _util import print_table, record, record_metrics

from repro.faults.scenario import e9_home, launch_e9_attacks
from repro.netsim.simulator import Simulator


def run_scale(n_devices: int) -> dict:
    start = time.perf_counter()
    dep = e9_home(n_devices)
    build_s = time.perf_counter() - start

    # attack the first camera and the first plug
    results = launch_e9_attacks(dep)
    start = time.perf_counter()
    dep.run(until=600.0)
    run_s = time.perf_counter() - start
    events = dep.sim.events_processed
    stats = dep.controller.pipeline.stats
    return {
        "sim": dep.sim,
        "devices": n_devices,
        "build_s": build_s,
        "run_s": run_s,
        "events": events,
        "events_per_s": events / max(run_s, 1e-9),
        "attacks_blocked": sum(1 for r in results if not r.succeeded),
        "compromised": sum(1 for d in dep.devices.values() if d.is_compromised()),
        "mboxes": dep.manager.active_count(),
        "pipeline_rounds": stats.rounds,
        "pipeline_coalesced": stats.coalesced,
        "pipeline_evaluations": stats.evaluations,
        "pipeline_applies": stats.applies,
    }


#: E9-small probe shape: 100 concurrent periodic timers at 10ms over 20
#: simulated seconds -- the telemetry/timer event mix of a 20-device E9
#: home, compressed so the run is dominated by the event loop itself.
SMALL_TIMERS = 100
SMALL_PERIOD = 0.01
SMALL_UNTIL = 20.0


def run_small(observe: bool = True) -> dict:
    """E9-small: the simulator-core capacity probe.

    E9 measures the *whole secured stack* (packets through µmboxes, the
    control pipeline, telemetry); its events/s is bounded from above by
    how fast the event loop itself can schedule and dispatch events.
    E9-small measures that ceiling: the E9 timer mix (periodic
    telemetry-style timers, one reschedule per firing) with null handlers,
    so the list heap entries, the precomputed ``every()`` dispatch and the
    run loop are the entire cost.  This is the number that must approach
    1M events/s for the full stack to ever get there.
    """
    sim = Simulator(observe=observe)

    def tick() -> None:
        pass

    for __ in range(SMALL_TIMERS):
        sim.every(SMALL_PERIOD, tick)
    start = time.perf_counter()
    sim.run(until=SMALL_UNTIL)
    run_s = time.perf_counter() - start
    events = sim.events_processed
    return {
        "observe": observe,
        "events": events,
        "run_s": run_s,
        "events_per_s": events / max(run_s, 1e-9),
    }


def test_e9_small_core_capacity():
    """The event-loop core must clear half of the 1M events/s north star."""
    rows = [run_small() for __ in range(3)]
    best = max(rows, key=lambda r: r["events_per_s"])
    print_table(
        "E9-small: event-loop core capacity (best of 3)",
        ["Sim events", "Wall (s)", "Events/s"],
        [(f"{best['events']:,}", f"{best['run_s']:.3f}", f"{best['events_per_s']:,.0f}")],
    )
    assert best["events"] == rows[0]["events"]  # deterministic event count
    shim = types.SimpleNamespace(name="test_e9_small_core_capacity", extra_info={})
    record(shim, "small", {k: best[k] for k in ("events", "run_s", "events_per_s")})
    # Generous CI floor (shared runners are slow); the regression gate
    # tracks the real number against the committed baseline.
    assert best["events_per_s"] > 100_000


def test_e9_whole_stack_scale(scenario_benchmark):
    sweep = [10, 20, 40, 80]

    def run_all():
        return [run_scale(n) for n in sweep]

    results = scenario_benchmark(run_all)
    # Embed the largest run's registry snapshot in the JSON baseline; the
    # sim handle itself must not leak into the serialized rows.
    sims = [r.pop("sim") for r in results]
    record_metrics(scenario_benchmark, sims[-1])

    print_table(
        "E9: ten simulated minutes of a fully-tunnelled home",
        [
            "Devices",
            "µmboxes",
            "Sim events",
            "Wall run (s)",
            "Events/s",
            "Rounds",
            "Coalesced",
            "Applies",
            "Attacks blocked",
            "Compromised",
        ],
        [
            (
                r["devices"],
                r["mboxes"],
                f"{r['events']:,}",
                f"{r['run_s']:.2f}",
                f"{r['events_per_s']:,.0f}",
                r["pipeline_rounds"],
                r["pipeline_coalesced"],
                r["pipeline_applies"],
                f"{r['attacks_blocked']}/2",
                r["compromised"],
            )
            for r in results
        ],
    )
    record(scenario_benchmark, "sweep", results)

    for r in results:
        assert r["attacks_blocked"] == 2
        assert r["compromised"] == 0
        assert r["mboxes"] == r["devices"]
    # sanity floor only -- absolute throughput is machine/load dependent;
    # typical figures are 60k-150k events/s (see EXPERIMENTS.md)
    assert min(r["events_per_s"] for r in results) > 10_000
