"""Ablation A3: µmbox pre-boot pool sizing.

Section 5.2's resource-management answer rests on pooled micro-VMs.  The
pool is a classic provisioning knob: too small and posture changes during
an incident wait for cold boots; too large and cluster memory idles.  We
replay an incident burst (many devices needing new µmboxes at once,
repeated over time) against pool sizes 0..16 and report attach-latency
percentiles and pool hit rate.
"""

from __future__ import annotations

import random

from _util import percent, print_table, record

from repro.core.metrics import nearest_rank
from repro.mboxes.base import MboxHost
from repro.mboxes.manager import MboxManager
from repro.netsim.simulator import Simulator
from repro.policy.posture import MboxSpec, Posture


def run_pool(pool_size: int, bursts: int, burst_width: int, seed: int) -> dict:
    rng = random.Random(seed)
    sim = Simulator()
    host = MboxHost("cluster", sim)
    manager = MboxManager(
        sim, host, pool_size=pool_size,
        boot_latency=0.030, pool_attach_latency=0.001, capacity=4096,
    )
    device_id = 0
    t = 0.0
    for __ in range(bursts):
        t += rng.uniform(20.0, 60.0)  # pool has time to replenish between
        for i in range(burst_width):
            name = f"dev{device_id}"
            device_id += 1
            posture = Posture.make(
                f"p{device_id}", MboxSpec.make("stateful_firewall", default="drop")
            )
            sim.schedule(t + i * 0.001, manager.deploy, name, posture)
    sim.run()

    fresh = sorted(
        r.latency for r in manager.records if r.operation in ("boot", "pool")
    )
    return {
        "pool": pool_size,
        "deployments": len(fresh),
        "p50_ms": nearest_rank(fresh, 0.50) * 1e3,
        "p95_ms": nearest_rank(fresh, 0.95) * 1e3,
        "hit_rate": manager.pool_hits / max(1, len(fresh)),
    }


def test_a3_pool_sizing(scenario_benchmark):
    sizes = [0, 1, 2, 4, 8, 16]

    def run_all():
        return [run_pool(size, bursts=10, burst_width=8, seed=5) for size in sizes]

    results = scenario_benchmark(run_all)

    print_table(
        "A3: pool size vs µmbox attach latency (bursts of 8 deployments)",
        ["Pool", "Deployments", "p50 (ms)", "p95 (ms)", "Pool hit rate"],
        [
            (r["pool"], r["deployments"], f"{r['p50_ms']:.1f}", f"{r['p95_ms']:.1f}", percent(r["hit_rate"]))
            for r in results
        ],
    )
    record(scenario_benchmark, "sweep", results)

    by_pool = {r["pool"]: r for r in results}
    # no pool: every deployment is a 30 ms cold boot
    assert by_pool[0]["hit_rate"] == 0.0
    assert by_pool[0]["p50_ms"] >= 29.0
    # a pool the size of the burst absorbs the whole burst
    assert by_pool[8]["hit_rate"] > 0.95
    assert by_pool[8]["p95_ms"] <= 1.5
    # hit rate is monotone in pool size
    rates = [r["hit_rate"] for r in results]
    assert all(a <= b + 1e-9 for a, b in zip(rates, rates[1:]))
