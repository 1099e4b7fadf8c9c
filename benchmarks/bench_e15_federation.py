"""E15: federated multi-site control plane -- scale + partition tolerance.

Two claims, one bench:

**Scale.**  We run the same fleet twice: once as a single site, once
sharded across >= 4 federated sites in parallel worker processes, and
compare aggregate throughput (total simulated events over end-to-end
wall clock, build included for both arms) at 10k devices.

Control-plane work is O(change) per device event, so the flat arm does
the same total work as the shards (about 9-11 s single vs 4-5.6 s
federated at 10k on 2 vCPUs; it was 161.7 s vs 48.3 s, 3.35x, while the
flat build was quadratic) and sharding wins what parallelism gives.  The
10k floor is set from that: ``PARALLEL_EFFICIENCY`` x ``min(WORKERS,
SITES, nproc)`` -- 1.5x on the 2-vCPU sandbox, where the pair reads
1.8-2.25x; 3x on four cores.  ``run_gate_pair`` is the one statement of
that gate: this bench asserts it and ``regression.py`` runs the same pair
against the same floor.  Both arms' absolute wall times are in the
recorded baseline (``single_wall_s``/``fed_wall_s``), so a slower flat arm
cannot hide behind a better ratio.  A shared host that withholds its
second vCPU during the federated arm collapses the ratio toward 1x
whatever the code does; at 10k the federated arm runs for seconds, long
enough to ride most such spells out.

**Partition tolerance.** The seeded coordinator-blackout scenario: a
signature mined at one site propagates fleet-wide in two WAN hops, then
the coordinator disappears for a minute while every site is attacked --
zero enforcement gaps on cached policy, in-order replay on heal, one
poisoned report quarantined to the DLQ.

``REPRO_E15_FULL=1`` adds a federated-only 100k-device arm.
"""

from __future__ import annotations

import os
import types

import pytest

from _util import print_table, record

from repro.faults.scenario import e9_spec, run_federation_blackout_scenario
from repro.federation import run_federation, run_site_worker, shard_fleet

SITES = 4
WORKERS = 4
HORIZON = 120.0
PAIR_SWEEP = (1_000, 10_000)
FULL_DEVICES = 100_000
#: Share of the ideal parallel speedup the 10k pair must keep (fork,
#: pickling and the slowest shard eat the rest; 0.9 measured on 2 vCPUs).
PARALLEL_EFFICIENCY = 0.75


def parallel_floor() -> float:
    """The speedup parallelism alone should give on this machine."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))  # what ``nproc`` prints
    else:
        cores = os.cpu_count() or 1
    return PARALLEL_EFFICIENCY * min(WORKERS, SITES, cores)


def run_pair(total: int, sites: int = SITES, workers: int = WORKERS,
             horizon: float = HORIZON) -> dict:
    """One fleet, two arms: single-site vs federated-sharded.

    The federated arm goes first: its workers fork, and forking after
    the single-site arm has built (and freed) a quadratic-size flat
    deployment copies a bloated heap into every child, taxing the
    federated arm for the single arm's garbage."""
    import gc

    gc.collect()
    fed = run_federation(shard_fleet(total, sites), horizon=horizon, workers=workers)
    gc.collect()
    single = run_site_worker("single", e9_spec(total), horizon)
    single_eps = single["events"] / max(single["wall_s"], 1e-9)
    return {
        "devices": total,
        "sites": sites,
        "mode": fed["mode"],
        "single_wall_s": single["wall_s"],
        "single_events": single["events"],
        "single_events_per_s": single_eps,
        "fed_wall_s": fed["wall_s"],
        "fed_events": fed["events"],
        "fed_events_per_s": fed["aggregate_events_per_s"],
        "speedup": fed["aggregate_events_per_s"] / max(single_eps, 1e-9),
        "attacks_blocked": single["attacks_blocked"] + fed["attacks_blocked"],
        "attacks_launched": single["attacks_launched"] + fed["attacks_launched"],
        "compromised": single["compromised"] + fed["compromised"],
        "per_site_events_per_s": [r["events_per_s"] for r in fed["per_site"]],
    }


def run_gate_pair() -> dict:
    """The gated pair: the sweep's largest fleet, carrying the floor this
    machine's cores set for it."""
    return {**run_pair(PAIR_SWEEP[-1]), "min_speedup": parallel_floor()}


def test_e15_federated_scale():
    rows = [run_pair(n) for n in PAIR_SWEEP[:-1]] + [run_gate_pair()]
    print_table(
        "E15: single-site vs federated (4 sites, parallel workers)",
        ["Devices", "Mode", "Single wall (s)", "Single ev/s",
         "Fed wall (s)", "Fed ev/s", "Speedup", "Blocked", "Compromised"],
        [
            (
                f"{r['devices']:,}",
                r["mode"],
                f"{r['single_wall_s']:.2f}",
                f"{r['single_events_per_s']:,.0f}",
                f"{r['fed_wall_s']:.2f}",
                f"{r['fed_events_per_s']:,.0f}",
                f"{r['speedup']:.2f}x",
                f"{r['attacks_blocked']}/{r['attacks_launched']}",
                r["compromised"],
            )
            for r in rows
        ],
    )
    shim = types.SimpleNamespace(name="test_e15_federation", extra_info={})
    record(shim, "pairs", rows)
    for r in rows:
        assert r["attacks_blocked"] == r["attacks_launched"]
        assert r["compromised"] == 0
        assert r["sites"] >= 4
    # The tentpole gate: sharding the 10k fleet across >= 4 federated
    # sites must keep most of what its parallel workers can give.
    big = rows[-1]
    assert big["speedup"] >= big["min_speedup"], (
        f"federated speedup {big['speedup']:.2f}x < {big['min_speedup']}x at "
        f"{big['devices']:,} devices"
    )


def test_e15_blackout_partition_tolerance():
    out = run_federation_blackout_scenario(sites=SITES)
    print_table(
        "E15: coordinator blackout (60 s) over a 4-site federation",
        ["Attacks blocked", "Enforcement gaps", "Signatures", "Lag (s)",
         "Autonomy spells", "Offline (site-s)", "DLQ", "Converged"],
        [
            (
                f"{out['attacks_blocked']}/{out['attacks_launched']}",
                out["enforcement_gaps"],
                out["signatures_propagated"],
                f"{out['propagation_lag_v1']:.3f}",
                out["autonomy_enters"],
                f"{out['offline_s']:.0f}",
                out["dlq_quarantined"],
                out["converged"],
            )
        ],
    )
    shim = types.SimpleNamespace(name="test_e15_federation", extra_info={})
    record(shim, "blackout", {k: v for k, v in out.items() if k != "gap_details"})
    # Partition tolerance, verbatim from the issue: zero enforcement
    # gaps while the coordinator is dark.
    assert out["enforcement_gaps"] == 0, out["gap_details"]
    assert out["patient_zero_compromised"]  # the one pre-signature loss
    assert out["attacks_blocked"] == out["attacks_launched"] - 1
    assert out["signatures_propagated"] == 2
    assert out["out_of_order"] == 0
    assert out["pending_after"] == 0
    assert out["converged"]
    assert out["dlq_quarantined"] == 1
    assert out["autonomy_enters"] == SITES
    assert out["autonomy_exits"] == SITES
    # propagation: one push hop over the 40 ms WAN past the version stamp
    assert out["propagation_lag_v1"] == pytest.approx(0.040, abs=0.001)


@pytest.mark.skipif(
    not os.environ.get("REPRO_E15_FULL"),
    reason="100k-device federated arm only under REPRO_E15_FULL=1",
)
def test_e15_full_fleet_federated_only():
    sites = 16
    fed = run_federation(shard_fleet(FULL_DEVICES, sites), horizon=HORIZON, workers=WORKERS)
    print_table(
        f"E15-full: {FULL_DEVICES:,} devices across {sites} federated sites",
        ["Sites", "Mode", "Wall (s)", "Events", "Aggregate ev/s", "Compromised"],
        [
            (
                fed["sites"],
                fed["mode"],
                f"{fed['wall_s']:.1f}",
                f"{fed['events']:,}",
                f"{fed['aggregate_events_per_s']:,.0f}",
                fed["compromised"],
            )
        ],
    )
    shim = types.SimpleNamespace(name="test_e15_federation", extra_info={})
    record(shim, "full", {k: v for k, v in fed.items() if k != "per_site"})
    assert fed["compromised"] == 0
    assert fed["attacks_blocked"] == fed["attacks_launched"]
