"""E13: controller survivability -- failover blind window and storm shedding.

Two experiments from ``repro.faults.scenario``, both seeded and
sim-timed (machine-independent):

**Failover**: the controller crashes at t=10 s, half a second before a
camera brute-force wave starts.  The *blind window* is attack time from
the crash until the first post-crash enforcing posture lands.

- **crash** arm -- periodic local checkpoints, no replica: an operator
  cold-restarts the controller 20 s later from checkpoint + journal tail;
  the blind window is essentially the outage.
- **standby** arm -- a hot standby consumes replicated checkpoints and
  journal deltas, detects the silence by heartbeat timeout, takes over
  under the primary's endpoint name (pending alert retransmissions
  deliver to it), and reconciles the surviving data plane.  The blind
  window collapses to detection time plus one escalation step.

**Storm**: a 10x telemetry flood (500 alerts/s against a 250/s service
ceiling) hits the controller's bounded ingest queue while genuine
enforcing-posture alerts keep arriving.  The **shed** arm prioritizes by
class and sheds telemetry at the watermark; the **fifo** arm is the same
queue as plain drop-tail.  Headline metrics: fraction of enforcing-class
alerts processed, and per-class P99 queueing latency.

The gate in ``benchmarks/regression.py`` holds the standby arm's blind
window under ``FAILOVER_BLIND_RATIO`` of the crash arm's and the shed
arm's enforcing fraction above ``STORM_MIN_ENFORCING_FRAC``.
"""

from __future__ import annotations

from _util import print_table, record
from regression import FAILOVER_BLIND_RATIO, STORM_MIN_ENFORCING_FRAC

from repro.faults.scenario import run_failover_scenario, run_storm_scenario

SEED = 7

FAILOVER_COLUMNS = (
    "attack_attempts",
    "cam_login_successes",
    "blind_window_s",
    "cam_enforced_at",
    "checkpoints",
    "failovers",
    "restarts",
    "ctrl_retries",
    "ctrl_unacked",
    "rules_installed",
    "events",
)

STORM_COLUMNS = (
    "enforcing_processed_frac",
    "shed_transitions",
    "rules_installed",
    "events",
)


def run_failover_arms(seed: int = SEED) -> list[dict]:
    return [run_failover_scenario(standby, seed=seed) for standby in (False, True)]


def run_storm_arms(seed: int = SEED) -> list[dict]:
    return [run_storm_scenario(shedding, seed=seed) for shedding in (False, True)]


def run_arms(seed: int = SEED) -> dict[str, list[dict]]:
    return {"failover": run_failover_arms(seed), "storm": run_storm_arms(seed)}


def test_e13_controller_ha(scenario_benchmark):
    results = scenario_benchmark(run_arms)
    crash, standby = results["failover"]
    fifo, shed = results["storm"]

    print_table(
        "E13a: blind window -- cold restart vs hot-standby failover",
        ["Metric", "crash", "standby"],
        [(col, crash.get(col), standby.get(col)) for col in FAILOVER_COLUMNS],
    )
    storm_rows = [
        (col, fifo.get(col), shed.get(col)) for col in STORM_COLUMNS
    ]
    for cls in ("enforcing", "telemetry"):
        storm_rows.append(
            (
                f"p99_latency_s[{cls}]",
                fifo["p99_latency_s"][cls],
                shed["p99_latency_s"][cls],
            )
        )
        storm_rows.append(
            (
                f"dropped[{cls}]",
                fifo["queue"]["dropped"][cls],
                shed["queue"]["dropped"][cls],
            )
        )
    print_table(
        "E13b: 10x alert storm -- drop-tail FIFO vs prioritized shedding",
        ["Metric", "fifo", "shed"],
        storm_rows,
    )
    record(
        scenario_benchmark,
        "arms",
        {
            "failover": {r["arm"]: r for r in results["failover"]},
            "storm": {r["arm"]: r for r in results["storm"]},
        },
    )

    # Determinism: the same seed reproduces the same run, bit for bit --
    # this is what lets CI gate on these numbers across machines.
    assert run_arms() == results

    # Both arms face the identical attack schedule...
    assert crash["attack_attempts"] == standby["attack_attempts"]
    # ...but failover collapses the blind window to well under the gated
    # share of the cold-restart outage.
    assert standby["blind_window_s"] < FAILOVER_BLIND_RATIO * crash["blind_window_s"]
    assert standby["failovers"] == 1 and standby["restarts"] == 0
    assert crash["failovers"] == 0 and crash["restarts"] == 1
    # The standby adopts the primary's endpoint (and the cold restart
    # re-registers it), so the alerts the cluster's lane held against the
    # dead controller are delivered: nothing is left unacked at the horizon.
    assert standby["ctrl_unacked"] == 0 and crash["ctrl_unacked"] == 0
    # The camera is firewalled shortly after takeover; during the cold
    # restart's outage the attacker logs in at will.
    assert standby["cam_login_successes"] < crash["attack_attempts"] / 4

    # Storm: same flood, same service rate, same capacity in both arms.
    assert fifo["events"] > 0 and shed["events"] > 0
    # Shedding keeps the gated share of enforcing-class alerts; drop-tail
    # loses them indiscriminately alongside the telemetry.
    assert shed["enforcing_processed_frac"] >= STORM_MIN_ENFORCING_FRAC
    assert fifo["enforcing_processed_frac"] < 0.5
    # Priority service also bounds enforcing-class queueing latency: the
    # storm cannot queue ahead of a real alert.
    assert (
        shed["p99_latency_s"]["enforcing"] < fifo["p99_latency_s"]["enforcing"]
    )
    assert shed["shed_transitions"] > 0 and fifo["shed_transitions"] == 0
