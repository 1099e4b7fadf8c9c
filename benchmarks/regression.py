"""Continuous perf-regression gate: one instrument, every gate stated once.

What the CI ``bench-regression`` job runs.  It measures, compares against
the committed bench results under ``benchmarks/results/``, appends one
entry to the repo-level ``BENCH_TRAJECTORY.json`` and exits non-zero
naming every violated gate.

- **Wall clock** comes from the ledger benchmark and nowhere else: its
  driver form (``benchmarks/ledger/run.py --workload home-steady --seed S
  --seconds N --trace 0|1``) runs once per trace mode as a subprocess.
  Gated is only what one process measures against itself: the ratios
  ``stack.tax_x`` and ``obs.cost_frac``, a fast-path layer reading zero
  ``calls_per_pkt``, and the ledger's own named correctness checks
  (``ledger.closure_frac``'s window among them).  The trajectory entry
  records ``pkts_per_s`` with its spread and ``host.calib_events_per_s``;
  raw wall clock is never compared with a number committed on another
  machine.  The one other pair of wall clocks, E15's federated/single
  ratio, is stated in ``bench_e15_federation.py`` and read from there.
- **Exact counters**: the simulation is seeded and sim-timed, so every
  counter in :data:`EXACT` must *equal* its committed value -- any change
  is a behavior change that should have re-recorded the bench results
  (run the benches, commit the updated ``benchmarks/results/*.json``).
- **Properties** of the sim-time experiments (E12 exposure window, E13
  blind-window ratio and storm shedding, E14 zero loss in a bounded
  buffer, E15 blackout, E16 containment, health/SLO verdicts), each
  against a threshold from the config block below or an absolute; the
  comments in :func:`compare` say what each one protects.

Usage::

    PYTHONPATH=src python benchmarks/regression.py [--json]

``compare`` is a pure function over plain dicts so the gate itself is
unit-testable (including the synthetic-regression cases) without running
any benchmark; the bench imports inside ``measure`` are lazy for that.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterator

# ---------------------------------------------------------------------------
# Thresholds -- the ONE place a gate is pinned.  Bench files, tests and CI
# import or run this block; none of them re-types a value.
# ---------------------------------------------------------------------------
#: The ledger run: ``BENCHMARK.json``'s driver form on the E9 home.
LEDGER_ARGS = ("--workload", "home-steady", "--seed", "1", "--seconds", "12")
# Each ratio limit is the median of ten driver-form readings of the tree
# that set it plus three of their spreads (IQR), the ledger's own rule for
# a bound (2-vCPU sandbox, py3.11, LEDGER_ARGS with --trace 1):
#   stack.tax_x    3.34 2.84 3.43 3.65 3.52 3.28 3.44 3.36 3.23 2.97
#                  median 3.35, IQR 0.19 -> 3.35 + 0.58, stated to the
#                  next 0.05 (taken with the heap entry as the event: the
#                  ratio's denominator, bare-forward's packet cost, fell
#                  12-14% and its numerator 4%, so the same stack reads a
#                  higher tax; the tree before read 3.20, IQR 0.10, the
#                  same day, and the four-hop path 4.14)
#   obs.cost_frac  .021 .036 -.082 .037 -.003 .002 .048 .021 .026 .037
#                  median 0.024, IQR 0.036 -> 0.024 + 0.108
STACK_TAX_LIMIT = 3.95         # max bare-forward / home-steady packet rate
OBS_COST_LIMIT = 0.13          # max share of the packet rate observability costs
#: Layers every conforming packet crosses: zero calls means a wrapped
#: entry point was inlined away and its ledger line silently reads 0.
FAST_PATH_LAYERS = (
    "netsim.link", "netsim.switch", "mboxes.host", "mboxes.chain", "sdn.channel", "core.controller",
)
RESILIENCE_REGRESSION = 0.20   # max fractional growth of E12's exposure window
FAILOVER_BLIND_RATIO = 0.20    # max standby blind window / crash blind window
STORM_MIN_ENFORCING_FRAC = 0.90  # min enforcing-alert fraction under shedding
E14_PEAK_BUFFER_LIMIT = 2048   # max stream-buffer records held during the outage
SWEEP = (10, 40, 80)           # E9 fleet sizes whose counters are checked

#: Counters the seeded simulation fixes exactly, by section of the
#: measurement.  Every dict under a section is a row; a listed key present
#: in a row on both sides must be equal.
EXACT: dict[str, tuple[str, ...]] = {
    "e9": ("events", "pipeline_rounds", "pipeline_applies"),
    # ``rules_installed``: flow rules summed over the run's two-phase
    # epochs -- an epoch that re-pushes more than the devices it changes
    # moves it, however little wall clock that costs on a two-device home.
    "e12": ("attack_attempts", "attack_successes", "events", "rules_installed"),
    "e13": ("attack_attempts", "blind_window_s", "events", "rules_installed"),
    "e14": ("emitted", "received", "telemetry_loss", "delivered", "peak_depth", "events"),
    "e15": (
        "events", "attacks_launched", "attacks_blocked", "enforcement_gaps",
        "signatures_propagated", "dlq_quarantined", "autonomy_enters", "autonomy_exits",
        "out_of_order", "pending_after",
    ),
    "e16": ("campaigns", "recall", "containment_breaches"),
}
#: What else a trajectory entry and the printed summary carry per row:
#: the readings and the values the property gates look at.
REPORTED: dict[str, tuple[str, ...]] = {
    "ledger": (
        "pkts_per_s", "pkts_per_s_spread", "pkts_per_s_samples", "host.calib_events_per_s",
        "stack.tax_x", "obs.cost_frac", "ledger.closure_frac",
    ),
    "e12": ("exposure_s",),
    "e13": ("enforcing_processed_frac",),
    "e15": ("speedup", "min_speedup", "devices", "propagation_lag_v1"),
    "e16": ("enforcing_misses",),
    "health": ("rollup", "slo_breaches", "matched_recoveries"),
}

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
LEDGER_RUN = BENCH_DIR / "ledger" / "run.py"
LEDGER_DETAIL_TAG = "LEDGER-DETAIL "
TRAJECTORY_PATH = BENCH_DIR.parent / "BENCH_TRAJECTORY.json"
#: Where each section's committed values live: (results file, key in it).
BASELINES: dict[str, tuple[str, str | None]] = {
    "e9": ("test_e9_whole_stack_scale.json", "sweep"),
    "e12": ("test_e12_resilience.json", "arms"),
    "e13": ("test_e13_controller_ha.json", "arms"),
    "e14": ("test_e14_durable_telemetry.json", "arms"),
    "e15": ("test_e15_federation.json", None),
    "e16": ("test_e16_campaign_scorecard.json", "scorecard"),
}


# ---------------------------------------------------------------------------
# The pure gate
# ---------------------------------------------------------------------------
def _rows(node: Any, label: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """Every dict at or under ``node``, with its slash-joined path."""
    if isinstance(node, dict):
        yield label, node
        for name, sub in node.items():
            yield from _rows(sub, f"{label}/{name}")


def exact_drift(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """One violation per :data:`EXACT` counter that left its committed value."""
    violations = []
    for section, keys in EXACT.items():
        committed = dict(_rows(baseline.get(section), section))
        for label, row in _rows(current.get(section), section):
            base = committed.get(label, {})
            for key in keys:
                if key in base and key in row and row[key] != base[key]:
                    violations.append(
                        f"{label}: deterministic counter {key} changed "
                        f"{base[key]} -> {row[key]}; a behavior change must "
                        "re-record the baselines"
                    )
    return violations


def compare(current: dict[str, Any], baseline: dict[str, Any]) -> list[str]:
    """Return the list of violations of ``current`` against ``baseline``.

    Both are plain dicts keyed by section, shaped as :func:`measure` and
    :func:`load_baseline` build them.  What is present on only one side is
    skipped: a vanished baseline is a repo problem, not a regression.
    """
    violations = exact_drift(current, baseline)

    ledger = current.get("ledger") or {}
    for check in ledger.get("failed_checks", ()):
        violations.append(f"ledger: correctness check failed: {check}")
    tax = ledger.get("stack.tax_x")
    if tax is not None and tax > STACK_TAX_LIMIT:
        violations.append(
            f"ledger/stack.tax_x: a packet costs {tax:.2f}x its bare-forward "
            f"cost with the security stack on (limit {STACK_TAX_LIMIT}x)"
        )
    cost = ledger.get("obs.cost_frac")
    if cost is not None and cost > OBS_COST_LIMIT:
        violations.append(
            f"ledger/obs.cost_frac: observability costs {cost:.1%} of the "
            f"packet rate (limit {OBS_COST_LIMIT:.0%})"
        )
    for layer in FAST_PATH_LAYERS:
        if ledger.get(f"{layer}.calls_per_pkt") == 0:
            violations.append(
                f"ledger/{layer}.calls_per_pkt: no wrapped call seen on the "
                "fast path -- a public entry point was inlined away"
            )

    # E12: resilience must bound the exposure window strictly below the
    # no-resilience arm, and not grow past the committed window.
    e12 = current.get("e12") or {}
    cur_res, cur_none = e12.get("resilient"), e12.get("baseline")
    if cur_res and cur_none:
        if cur_res["exposure_s"] >= cur_none["exposure_s"]:
            violations.append(
                f"e12: resilience no longer bounds the exposure window "
                f"({cur_res['exposure_s']}s resilient vs {cur_none['exposure_s']}s without)"
            )
        committed = (baseline.get("e12") or {}).get("resilient") or {}
        if committed.get("exposure_s", 0) > 0:
            growth = cur_res["exposure_s"] / committed["exposure_s"] - 1.0
            if growth > RESILIENCE_REGRESSION:
                violations.append(
                    f"e12: resilient exposure window grew {growth:.1%} "
                    f"({committed['exposure_s']}s -> {cur_res['exposure_s']}s, "
                    f"limit {RESILIENCE_REGRESSION:.0%})"
                )

    # E13: controller survivability (pinned ratios, not baseline deltas).
    e13 = current.get("e13") or {}
    failover = e13.get("failover") or {}
    crash, standby = failover.get("crash"), failover.get("standby")
    if crash and standby and crash.get("blind_window_s", 0) > 0:
        ratio = standby["blind_window_s"] / crash["blind_window_s"]
        if ratio > FAILOVER_BLIND_RATIO:
            violations.append(
                f"e13: failover blind window is {ratio:.1%} of the cold-restart window "
                f"({standby['blind_window_s']}s vs {crash['blind_window_s']}s, "
                f"limit {FAILOVER_BLIND_RATIO:.0%})"
            )
    shed = (e13.get("storm") or {}).get("shed")
    if shed and shed.get("enforcing_processed_frac") is not None:
        frac = shed["enforcing_processed_frac"]
        if frac < STORM_MIN_ENFORCING_FRAC:
            violations.append(
                f"e13: shedding processed only {frac:.1%} of enforcing alerts under the "
                f"storm (floor {STORM_MIN_ENFORCING_FRAC:.0%})"
            )

    # E14: zero loss is absolute; the buffer must fit its budget; and the
    # lossy arm must keep *showing* loss, or the scenario stopped
    # exercising the partition the durable plane exists for.
    e14 = current.get("e14") or {}
    durable, lossy = e14.get("durable"), e14.get("lossy")
    if durable and durable.get("telemetry_loss", 0) != 0:
        violations.append(
            f"e14: durable arm lost {durable['telemetry_loss']} records across the "
            "partition (must be exactly 0)"
        )
    if durable and durable.get("peak_depth", 0) > E14_PEAK_BUFFER_LIMIT:
        violations.append(
            f"e14: stream buffer peaked at {durable['peak_depth']} records (ceiling "
            f"{E14_PEAK_BUFFER_LIMIT}); the outage no longer fits the pinned memory budget"
        )
    if lossy and lossy.get("telemetry_loss", 1) <= 0:
        violations.append(
            "e14: the lossy arm shows no telemetry loss -- the partition scenario stopped "
            "exercising the failure the durable plane is gated on"
        )

    # E15: the pair carries the floor bench E15 set for this machine's
    # cores; the blackout's properties are absolute.
    e15 = current.get("e15") or {}
    pair = e15.get("pair")
    if pair and pair.get("speedup", 0.0) < pair.get("min_speedup", 0.0):
        violations.append(
            f"e15: federated aggregate throughput is only {pair.get('speedup', 0.0):.2f}x "
            f"the single-site arm at {pair.get('devices')} devices "
            f"(floor {pair['min_speedup']}x)"
        )
    if pair and pair.get("compromised", 0) != 0:
        violations.append(
            f"e15: {pair['compromised']} device(s) compromised in the scale pair "
            "(must be 0 -- sharding broke enforcement)"
        )
    blackout = e15.get("blackout")
    if blackout:
        if blackout.get("enforcement_gaps", 1) != 0:
            violations.append(
                f"e15: {blackout.get('enforcement_gaps')} enforcement gap(s) during the "
                "coordinator blackout (must be exactly 0 -- sites stopped enforcing on "
                f"cached policy): {blackout.get('gap_details', '')}"
            )
        if not blackout.get("converged", False):
            violations.append(
                "e15: the federation did not reconverge after the blackout heal -- a "
                "site's replay cursor is wedged"
            )
        if blackout.get("out_of_order", 1) != 0:
            violations.append(
                f"e15: {blackout.get('out_of_order')} out-of-order signature update(s) "
                "observed (the versioned replay contract is broken)"
            )
        if blackout.get("dlq_quarantined", 0) < 1:
            violations.append(
                "e15: the poisoned signature report was not quarantined -- repository "
                "validation regressed"
            )

    # E16: containment on the enforcing classes is absolute; the fabric
    # class is gated on evidence that the degradation really happened.
    summary = (current.get("e16") or {}).get("summary") or {}
    if summary:
        missed = summary.get("enforcing_misses", [])
        if missed:
            violations.append(
                f"e16: enforcing-class campaign(s) left {', '.join(missed)} uncontained "
                "(must be zero containment misses)"
            )
        evidence = summary.get("fabric_evidence") or {}
        if not evidence.get("fabric_degraded", False):
            violations.append(
                "e16: no fabric-degradation campaign stole any packets -- the "
                "compromised-switch scenarios stopped degrading the fabric"
            )
        if evidence.get("outages", 0) < 1 or evidence.get("repins", 0) < 1:
            violations.append(
                f"e16: fabric class shows {evidence.get('outages', 0)} outage(s) / "
                f"{evidence.get('repins', 0)} re-pin(s) (needs >= 1 of each -- the "
                "µmbox-outage campaign went inert)"
            )
        if evidence.get("containment_breaches", 0) < 1:
            violations.append(
                "e16: no campaign-containment burn-rate breach fired -- a degraded-fabric "
                "miss would be silent (SLO fold-in regressed)"
            )

    # Health/SLO plane: the fault-free run must be all-green, the chaos
    # plan must trip a breach and journal a recovery with its trace id.
    health = current.get("health") or {}
    steady = health.get("steady") or {}
    if steady and steady.get("rollup") != "ok":
        violations.append(
            f"health/steady: deployment rollup is {steady.get('rollup')!r} on the standard "
            "seeded run (must be 'ok' -- a fault-free deployment reports sick)"
        )
    if steady and steady.get("slo_breaches", 0) != 0:
        violations.append(
            f"health/steady: {steady.get('slo_breaches')} SLO breach(es) fired on the "
            "standard seeded run (must be 0; a burn-rate detector went trigger-happy)"
        )
    chaos = health.get("chaos") or {}
    if chaos and chaos.get("slo_breaches", 0) < 1:
        violations.append(
            "health/chaos: the chaos plan tripped no SLO breach -- burn-rate detection "
            "went blind to a partition it is pinned to catch"
        )
    elif chaos and chaos.get("matched_recoveries", 0) < 1:
        violations.append(
            "health/chaos: no slo-recover shares its breach's trace id -- the journaled "
            "breach->recover chain is broken"
        )
    return violations


def summarize(current: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """Per section and row, the :data:`EXACT` and :data:`REPORTED` values it has."""
    summary: dict[str, dict[str, Any]] = {}
    for section in current:
        keys = EXACT.get(section, ()) + REPORTED.get(section, ())
        for label, row in _rows(current[section], section):
            values = {key: row[key] for key in keys if key in row}
            if values:
                summary.setdefault(section, {})[label] = values
    return summary


def append_trajectory(
    entry: dict[str, Any], path: Path | str = TRAJECTORY_PATH
) -> list[dict[str, Any]]:
    """Append one run's entry to the trajectory file; returns the history."""
    path = Path(path)
    history: list[dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                history = loaded
        except (OSError, ValueError):
            pass
    history.append(entry)
    path.write_text(json.dumps(history, indent=2, sort_keys=True) + "\n")
    return history


def load_baseline() -> dict[str, Any]:
    """The committed values this run is compared with, by section."""
    baseline: dict[str, Any] = {}
    for section, (filename, key) in BASELINES.items():
        path = RESULTS_DIR / filename
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        if key is not None:
            data = data.get(key) or {}
        if section == "e9":
            data = {f"{row['devices']}dev": row for row in data}
        baseline[section] = data
    return baseline


# ---------------------------------------------------------------------------
# Measurement (lazy bench imports so the pure gate is importable anywhere)
# ---------------------------------------------------------------------------
def measure_ledger() -> dict[str, Any]:
    """The ledger section: the driver form once per trace mode, each
    subprocess's detail line read into one flat row of readings."""
    details = []
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(LEDGER_RUN), *LEDGER_ARGS, "--trace", trace],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        tagged = [line for line in proc.stdout.splitlines() if line.startswith(LEDGER_DETAIL_TAG)]
        if not tagged:
            raise RuntimeError(f"ledger --trace {trace} exited {proc.returncode} with no result")
        details.append(json.loads(tagged[-1][len(LEDGER_DETAIL_TAG):]))
    untraced, traced = details
    rate = untraced["host"]["pkts_per_s"]
    row: dict[str, Any] = {
        "pkts_per_s": rate["value"],
        "pkts_per_s_spread": rate["spread"],
        "pkts_per_s_samples": rate["samples"],
        "failed_checks": sorted(
            name for detail in details for name, ok in detail["checks"].items() if not ok
        ),
    }
    wanted = REPORTED["ledger"] + tuple(f"{layer}.calls_per_pkt" for layer in FAST_PATH_LAYERS)
    row.update({name: traced["values"][name] for name in wanted if name in traced["values"]})
    return row


def measure() -> dict[str, Any]:
    from bench_e12_resilience import run_arms
    from bench_e13_controller_ha import run_arms as run_ha_arms
    from bench_e14_durable_telemetry import run_arms as run_durable_arms
    from bench_e15_federation import SITES, run_gate_pair
    from bench_e16_campaigns import compact, run_scorecard
    from bench_e9_scale import run_scale
    from repro.faults.scenario import run_federation_blackout_scenario, run_health_scenario

    RESULTS_DIR.mkdir(exist_ok=True)
    current: dict[str, Any] = {"ledger": measure_ledger(), "e9": {}}

    # E9: counters only, one run per size.  The largest run's journal
    # ships as a CI artifact (an inspectable flight-recorder dump), as do
    # E14's dead-letter queue and the health, campaign and E15 snapshots.
    for n in SWEEP:
        row = run_scale(n)
        sim = row.pop("sim")
        current["e9"][f"{n}dev"] = row
    sim.journal.export_jsonl(str(RESULTS_DIR / "journal_spill_sample.jsonl"))

    # The rest is seeded and sim-timed: one run is the number.
    current["e12"] = {row["arm"]: row for row in run_arms()}
    current["e13"] = {
        group: {row["arm"]: row for row in rows} for group, rows in run_ha_arms().items()
    }
    dlq_sample = str(RESULTS_DIR / "dlq_sample.jsonl")
    current["e14"] = {row["arm"]: row for row in run_durable_arms(dlq_sample)}
    current["health"] = {
        "steady": run_health_scenario("none"),
        "chaos": run_health_scenario("standard"),
    }
    scorecard = run_scorecard()
    current["e16"] = compact(scorecard)
    # E15: bench E15's gated pair plus the seeded coordinator blackout.
    current["e15"] = {
        "pair": run_gate_pair(),
        "blackout": run_federation_blackout_scenario(sites=SITES),
    }

    for name, artifact in (
        ("health_snapshot", current["health"]),
        ("campaign_scorecard", scorecard),
        ("federation_snapshot", current["e15"]),
    ):
        text = json.dumps(artifact, indent=2, sort_keys=True, default=str)
        (RESULTS_DIR / f"{name}.json").write_text(text + "\n")
    return current


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH_DIR))
    from _util import _git_sha

    current = measure()
    violations = compare(current, load_baseline())
    summary = summarize(current)
    now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    append_trajectory(
        {"git_sha": _git_sha(), "recorded_at": now, **summary, "violations": violations}
    )

    if args.json:
        print(json.dumps({"current": current, "violations": violations}, indent=2, default=str))
        return 1 if violations else 0
    for rows in summary.values():
        for label, values in rows.items():
            shown = (f"{k}={round(v, 4) if isinstance(v, float) else v}" for k, v in values.items())
            print(f"{label}: " + ", ".join(shown))
    print(f"trajectory: appended to {TRAJECTORY_PATH}")
    print(f"artifacts: journal, DLQ, health, federation and campaign samples -> {RESULTS_DIR}")
    if violations:
        print("\nREGRESSIONS DETECTED:")
        for violation in violations:
            print(f"  - {violation}")
    else:
        print("no regressions against committed baselines")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
