"""E12: control-plane resilience bounds the exposure window under faults.

The standard chaos scenario (``repro.faults.scenario``): the control
channel partitions for 3 s exactly when an attacker starts brute-forcing
the camera, and the plug's command-filter µmbox is crashed while backdoor
``on`` commands keep arriving.  Two arms:

- **baseline** -- fire-and-forget control messages, no health checks,
  fail-open µmboxes: the partition eats the alerts that would have
  escalated the camera, and the dead µmbox silently exposes the plug for
  the rest of the run;
- **resilient** -- at-least-once delivery (retry/backoff + dedup),
  fail-closed enforcement µmboxes, and the health sweep that reboots the
  crashed instance and re-pins its chain.

Headline metric: the **exposure window** (seconds during which attacks
can land).  The gate in ``benchmarks/regression.py`` holds the resilient
arm's window to its committed baseline; everything here is seeded and
sim-timed, so the numbers are machine-independent.
"""

from __future__ import annotations

from _util import print_table, record

from repro.faults.scenario import run_resilience_scenario

SEED = 7

COLUMNS = (
    "attack_attempts",
    "attack_successes",
    "exposure_s",
    "cam_reenforce_s",
    "plug_downtime_s",
    "mean_time_to_reenforce_s",
    "ctrl_drops",
    "ctrl_retries",
    "ctrl_giveups",
    "mbox_restarts",
    "down_drops",
    "fail_open_passes",
    "rules_installed",
    "events",
)


def run_arms(seed: int = SEED) -> list[dict]:
    return [run_resilience_scenario(resilient, seed=seed) for resilient in (False, True)]


def test_e12_resilience(scenario_benchmark):
    results = scenario_benchmark(run_arms)
    base, res = results

    print_table(
        "E12: exposure window with and without control-plane resilience",
        ["Metric", "baseline", "resilient"],
        [(col, base.get(col), res.get(col)) for col in COLUMNS],
    )
    record(scenario_benchmark, "arms", {r["arm"]: r for r in results})

    # Determinism: the same seed reproduces the same run, bit for bit --
    # this is what lets CI gate on these numbers across machines.
    assert run_arms() == results

    # The attacker faces the same schedule in both arms...
    assert base["attack_attempts"] == res["attack_attempts"]
    # ...but resilience strictly bounds the exposure window.
    assert res["exposure_s"] < base["exposure_s"]
    assert res["attack_successes"] < base["attack_successes"]

    # Baseline: the partition swallows alerts (no retries exist), and the
    # crashed fail-open µmbox lets backdoor commands through to the plug.
    assert base["ctrl_retries"] == 0 and base["ctrl_drops"] > 0
    assert base["mbox_restarts"] == 0
    assert base["fail_open_passes"] > 0
    assert base["plug_compromised"]

    # Resilient: retries carry the alerts across the partition (none are
    # abandoned), the health loop reboots the µmbox, and fail-closed means
    # not one command reached the plug -- ever.
    assert res["ctrl_retries"] > 0 and res["ctrl_giveups"] == 0
    assert res["mbox_restarts"] == 1
    assert res["fail_open_passes"] == 0
    assert res["plug_command_successes"] == 0
    assert not res["plug_compromised"]
    # Recovery is fast: µmbox downtime is detection (one health period,
    # 0.5 s) plus boot (0.03 s), not the rest of the run.
    assert res["plug_downtime_s"] <= 0.6
    # The camera is re-enforced shortly after the partition heals (retry
    # backoff reaches past the 3 s outage), not at the end of the horizon.
    assert res["cam_reenforce_s"] is not None
    assert res["cam_reenforce_s"] < base["cam_reenforce_s"] + base["plug_downtime_s"]
