#!/usr/bin/env python3
"""The ledger benchmark: one command, every metric by name.

    PYTHONPATH=src python benchmarks/ledger/run.py                 # the suite
    ... run.py --workload home-steady --repeats 1                  # quick look
    ... run.py --selfcheck                                         # A/A
    ... run.py --workload W --seed N --seconds S --trace 0|1       # the driver

Without ``--workload`` this is the suite: every workload in a fresh
subprocess of its own (untraced, then traced), the isolated probes and the
cross-run figures, printed by name with units, checked, and written as one
JSON document to ``--out``.  With ``--workload`` it is one such subprocess;
its last line is the driver's result object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
# ``src`` is found from this file, so the command names nothing outside
# the benchmark's own directory.  A checkout without it fails on import.
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import hostclock  # noqa: E402
import metrics  # noqa: E402
import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.netsim.simulator import Simulator  # noqa: E402

DETAIL_TAG = "LEDGER-DETAIL "
DEFAULT_REPEATS = 5
#: Share of the horizon the discarded warm-up run covers.
WARMUP_SHARE = 0.25
#: ``--seconds`` at which a traced subprocess works at full effort.
FULL_EFFORT_SECONDS = 48.0
#: E9-small's null-timer loop, stretched (ROADMAP 1a).
CALIB_TIMERS = 100
CALIB_PERIOD = 0.01
CALIB_EVENTS = 2_000_000
OBS_PAIRS = 3
PARTS = ("calib", "trace", "probes", "cross")
#: Where ``ledger.closure_frac`` must land or the attribution is wrong.
CLOSURE_WINDOW = (0.9, 1.1)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles and spread (IQR over median) of one host-time metric."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "value": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "samples": len(values),
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_runs(spec: workloads.Spec, runs: list[dict[str, Any]]) -> dict[str, bool]:
    """Named pass/fail checks over full-horizon repeats of one workload."""
    first = runs[0]
    counters = first["counters"]
    checks = {
        "repeats agree on every counter and the journal digest": all(
            run["counters"] == counters for run in runs
        ),
        "repeats agree on every simulated-time metric": all(
            run["exact"] == first["exact"] and run["counts"] == first["counts"] for run in runs
        ),
        "no operation failed": counters["failed"] == 0,
        "every benign report delivered": counters["reports_sent"] == counters["reports_received"],
    }
    if spec.iotsec:
        checks["one mbox per device"] = counters["mboxes"] == spec.devices
        checks["both opening attacks blocked"] = counters["opening_blocked"] == 2
        checks["no enforcing alert lost"] = counters["enforcing_alerts_lost"] == 0
    if spec.iotsec and not spec.waves:
        checks["nothing compromised"] = counters["compromised"] == 0
    if spec.waves:
        checks["at least 1000 completed detect-to-enforce chains"] = counters["chains"] >= 1000
    if spec.planes:
        checks["evidence_loss_frac is 0"] = first["exact"]["evidence_loss_frac"] == 0
        checks["health rollup recovered to ok"] = counters["health_rollup"] == "ok"
    return checks


# ----------------------------------------------------------------------
# One workload, untraced: the end-to-end numbers
# ----------------------------------------------------------------------
def run_end_to_end(
    spec: workloads.Spec, seed: int, repeats: int | None, seconds: float | None
) -> dict[str, Any]:
    inputs = workloads.generate_inputs(spec, seed)
    warm = spec.horizon * WARMUP_SHARE
    workloads.run_once(spec, workloads.generate_inputs(spec, seed, warm), warm)
    runs: list[dict[str, Any]] = []
    measured = 0.0
    while True:
        run = workloads.run_once(spec, inputs)
        runs.append(run)
        measured += run["host"]["run_wall_s"]
        if repeats is not None:
            if len(runs) >= repeats:
                break
        elif measured >= seconds:
            break
    host = {
        "pkts_per_s": summarize([r["host"]["pkts_per_s"] for r in runs]),
        "setup_s": summarize([r["host"]["setup_s"] for r in runs]),
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": 1,
        },
    }
    raw = {
        "pkts_per_wall_s": summarize([r["host"]["pkts_per_wall_s"] for r in runs]),
        "setup_wall_s": summarize([r["host"]["setup_wall_s"] for r in runs]),
        "run_wall_s": summarize([r["host"]["run_wall_s"] for r in runs]),
    }
    first = runs[0]
    counts = dict(first["counts"])
    counts["netsim.sim.events_per_s"] = statistics.median(
        r["counters"]["events"] / r["host"]["run_s"] for r in runs
    )
    return {
        "workload": spec.name,
        "seed": seed,
        "repeats": len(runs),
        "host": host,
        "raw": raw,
        "exact": first["exact"],
        "counts": counts,
        "counters": first["counters"],
        "checks": check_runs(spec, runs),
    }


# ----------------------------------------------------------------------
# One workload, traced: the per-layer numbers
# ----------------------------------------------------------------------
def _ns_per_pkt(run: dict[str, Any]) -> float:
    return run["host"]["run_s"] * 1e9 / run["counters"]["packets"]


def _traced(spec: workloads.Spec, inputs: workloads.Inputs, horizon: float) -> dict[str, Any]:
    """One run with the wrappers in place (installed before the build)."""
    ledger = tracing.Ledger()
    ledger.install()
    try:
        return workloads.run_once(spec, inputs, horizon, ledger=ledger)
    finally:
        ledger.restore()


def run_traced(spec: workloads.Spec, seed: int, effort: float) -> dict[str, Any]:
    """The per-layer numbers of one workload.

    Three runs of the same simulation: untraced, traced, untraced again
    (so a slow drift of the host falls on both sides of the traced run).
    ``effort`` may shorten them, a steady workload costing the same per
    packet however long it runs.  Their difference over the number of
    wrapped calls prices one wrapped call *in place* -- it cannot be priced
    anywhere else: 330 ns on an empty call, 600 ns in bare-forward, over
    1,000 ns in attack-storm.

    ``ledger.closure_frac`` splits the runs in two by slice.  The price is
    taken from the even slices only; the odd slices' traced time, less
    their own calls at that price, is divided by their untraced time.
    Slice ``k`` simulates the same thing in every run, and the two halves
    interleave in time, so whatever the host did to one run it did to
    both halves of it.  Closure lands on 1 when the tracing overhead is
    ``calls x a stable price`` -- which is what every per-layer number
    rests on -- and off it when the price moves with the mix of calls a
    slice happens to make.
    """
    empty_call = tracing.calibrate()
    short = spec.horizon * WARMUP_SHARE
    horizon = spec.horizon * max(WARMUP_SHARE, effort)
    workloads.run_once(spec, workloads.generate_inputs(spec, seed, short), short)  # warm, discarded
    inputs = workloads.generate_inputs(spec, seed, horizon)
    before = workloads.run_once(spec, inputs, horizon)
    traced = _traced(spec, inputs, horizon)
    after = workloads.run_once(spec, inputs, horizon)
    full = before
    if horizon != spec.horizon:
        # Exact metrics and counts are defined over the whole horizon.
        full = workloads.run_once(spec, workloads.generate_inputs(spec, seed))

    def untraced_s(key: str) -> Any:
        a, b = before["host"][key], after["host"][key]
        return (a + b) / 2 if key == "run_s" else [(x + y) / 2 for x, y in zip(a, b)]

    calls = sum(traced["half_calls"])
    in_place_ns = (traced["host"]["run_s"] - untraced_s("run_s")) * 1e9 / calls
    cost = tracing.WrapperCost(inner=empty_call.inner, outer=in_place_ns - empty_call.inner)
    even_u, odd_u = untraced_s("half_run_s")
    even_t, odd_t = traced["host"]["half_run_s"]
    even_calls, odd_calls = traced["half_calls"]
    closure = (odd_t - odd_calls * (even_t - even_u) / even_calls) / odd_u
    untraced_ns_per_pkt = untraced_s("run_s") * 1e9 / before["counters"]["packets"]

    packets = traced["counters"]["packets"]
    layers = traced["layers"]
    self_ns = tracing.corrected(layers, cost)
    values: dict[str, float] = {}
    for layer in tracing.LAYERS:
        values[f"{layer}.self_ns_per_pkt"] = self_ns[layer] / packets
        values[f"{layer}.calls_per_pkt"] = layers[layer]["calls"] / packets
    values["trace.overhead_frac"] = _ns_per_pkt(traced) / untraced_ns_per_pkt - 1.0
    values["ledger.closure_frac"] = closure

    counts = dict(full["counts"])
    counts["netsim.sim.events_per_s"] = full["counters"]["events"] / full["host"]["run_s"]
    checks = check_runs(spec, [full])
    checks["the traced run replays the same simulation"] = (
        traced["counters"] == before["counters"] == after["counters"]
        and traced["exact"] == before["exact"]
    )
    low, high = CLOSURE_WINDOW
    checks[f"ledger.closure_frac within [{low}, {high}]"] = (
        low <= values["ledger.closure_frac"] <= high
    )
    return {
        "workload": spec.name,
        "seed": seed,
        "traced": values,
        "exact": full["exact"],
        "counts": counts,
        "counters": full["counters"],
        "checks": checks,
        "info": {
            "traced_horizon_s": horizon,
            "wrapped_calls_per_pkt": sum(row["calls"] for row in layers.values()) / packets,
            "wrapper_ns_in_place": in_place_ns,
            "wrapper_ns_empty_call": empty_call.total,
            "untraced_ns_per_pkt": untraced_ns_per_pkt,
            "traced_ns_per_pkt": _ns_per_pkt(traced),
        },
    }


# ----------------------------------------------------------------------
# Cross-run figures
# ----------------------------------------------------------------------
class _NullTimers:
    """E9-small's timer mix as a run :func:`hostclock.run_sliced` can step."""

    slices = 40

    def __init__(self, events: int) -> None:
        self.sim = Simulator()
        for __ in range(CALIB_TIMERS):
            self.sim.every(CALIB_PERIOD, lambda: None)
        self.chunk = events // self.slices
        self.ref_s = 0.0

    def step(self, index: int) -> None:
        self.sim.run(max_events=self.chunk)

    def account(self, wall_s: float, scale: float) -> None:
        self.ref_s += wall_s * scale


def host_calibration(effort: float) -> float:
    """Events per reference second of a null-timer loop: the host's own
    speed, read the same way on every machine."""
    timers = _NullTimers(max(200_000, int(CALIB_EVENTS * effort)))
    hostclock.run_sliced(timers)
    return timers.sim.events_processed / timers.ref_s


def _rate(name: str, seed: int, effort: float, observe: bool = True) -> float:
    spec = workloads.WORKLOADS[name]
    horizon = spec.horizon * max(0.1, effort)
    inputs = workloads.generate_inputs(spec, seed, horizon)
    return workloads.run_once(spec, inputs, horizon, observe=observe)["host"]["pkts_per_s"]


def run_cross(seed: int, effort: float) -> dict[str, float]:
    """``stack.tax_x`` and ``obs.cost_frac``, arms interleaved in one process."""
    pairs = max(1, round(OBS_PAIRS * effort))
    _rate("bare-forward", seed, effort * WARMUP_SHARE)
    _rate("home-steady", seed, effort * WARMUP_SHARE)
    bare, home, dark = [], [], []
    for __ in range(pairs):
        bare.append(_rate("bare-forward", seed, effort))
        home.append(_rate("home-steady", seed, effort))
        dark.append(_rate("home-steady", seed, effort, observe=False))
    return {
        "stack.tax_x": statistics.median(bare) / statistics.median(home),
        "obs.cost_frac": 1.0 - statistics.median(home) / statistics.median(dark),
    }


def run_probes(effort: float) -> dict[str, dict[str, Any]]:
    return {name: probes.run_probe(name, effort) for name in probes.PROBES}


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.2f}"
    return f"{value:.4g}"


def print_metrics(title: str, rows: list[tuple[str, float, str, str]]) -> None:
    print(f"\n== {title}")
    width = max((len(name) for name, *__ in rows), default=0)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {_fmt(value):>14} {unit:<6} {note}".rstrip())


def print_checks(checks: dict[str, bool]) -> None:
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAILED'}] {name}")


# ----------------------------------------------------------------------
# A subprocess: one workload, or shared parts
# ----------------------------------------------------------------------
Emitted = dict[str, dict[str, Any]]


def child_end_to_end(spec: workloads.Spec, args: argparse.Namespace) -> tuple[dict, Emitted]:
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = DEFAULT_REPEATS
    detail = run_end_to_end(spec, args.seed, repeats, args.seconds)
    units = metrics.UNITS
    print_metrics(
        f"{spec.name} (seed {args.seed}, {detail['repeats']} repeats): end to end",
        [
            (name, row["value"], units[name], f"spread {row.get('spread', 0.0):.1%} n={row['samples']}")
            for name, row in detail["host"].items()
        ]
        + [(name, value, units[name], "exact") for name, value in detail["exact"].items()],
    )
    print_metrics(
        f"{spec.name}: counts",
        [(name, value, units[name], "") for name, value in detail["counts"].items()],
    )
    print_checks(detail["checks"])
    emitted = {
        name: {"value": row["value"], "unit": units[name]} for name, row in detail["host"].items()
    }
    return detail, emitted


def child_layers(spec: workloads.Spec, args: argparse.Namespace) -> tuple[dict, Emitted]:
    effort = 1.0 if args.seconds is None else min(1.0, args.seconds / FULL_EFFORT_SECONDS)
    parts = args.parts.split(",") if args.parts else list(PARTS)
    detail: dict[str, Any] = {"workload": spec.name, "seed": args.seed, "effort": effort, "checks": {}}
    values: dict[str, float] = {}
    units = metrics.UNITS
    if "calib" in parts:
        values["host.calib_events_per_s"] = host_calibration(effort)
    if "trace" in parts:
        traced = run_traced(spec, args.seed, effort)
        detail.update(traced)
        for family in ("traced", "counts", "exact"):
            values.update(traced[family])
        print_metrics(
            f"{spec.name} (seed {args.seed}): layers, traced",
            [(name, value, units[name], "") for name, value in traced["traced"].items()],
        )
        print_metrics(
            f"{spec.name}: traced run",
            [(name, value, "", "") for name, value in traced["info"].items()],
        )
        print_checks(traced["checks"])
    if "probes" in parts:
        detail["probes"] = run_probes(effort)
        values.update({name: row["value"] for name, row in detail["probes"].items()})
        print_metrics(
            "isolated probes",
            [
                (name, row["value"], row["unit"], f"n={row['samples']}")
                for name, row in detail["probes"].items()
            ],
        )
    if "cross" in parts:
        detail["cross"] = run_cross(args.seed, effort)
        values.update(detail["cross"])
    cross = [(m["name"], values[m["name"]], m["unit"], "") for m in metrics.CROSS if m["name"] in values]
    if cross:
        print_metrics("cross-run", cross)
    detail["values"] = values
    unknown = sorted(set(values) - set(metrics.PER_LAYER_NAMES))
    if unknown:
        raise RuntimeError(f"measured but not declared in metrics.py: {unknown}")
    # The driver wants every per-layer metric on every workload; a metric
    # with no samples here (tte on home-steady, stream counts with the
    # stream off) reads 0 in that line and is omitted everywhere else.
    emitted = {
        name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
        for name in metrics.PER_LAYER_NAMES
    }
    return detail, emitted


def child(args: argparse.Namespace) -> int:
    """One subprocess; its last line is the driver's result object."""
    spec = workloads.WORKLOADS[args.workload]
    detail, emitted = (child_layers if args.trace else child_end_to_end)(spec, args)
    ok = detail["ok"] = all(detail["checks"].values())
    counters = detail.get("counters", {"attempted": 1, "failed": 0})
    print(DETAIL_TAG + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": max(1, counters["attempted"]),
                "failed": counters["failed"],
                "metrics": emitted,
            }
        )
    )
    return 0 if ok else 1


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------
def spawn(extra: list[str]) -> dict[str, Any]:
    """Run one subprocess of this script; echo it; return its detail."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *extra],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    detail = None
    for line in proc.stdout.splitlines():
        if line.startswith(DETAIL_TAG):
            detail = json.loads(line[len(DETAIL_TAG):])
        elif not line.startswith("{"):
            print(line)
    if detail is None:
        raise RuntimeError(f"subprocess {' '.join(extra)} exited {proc.returncode} with no result")
    return detail


def environment() -> dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "spin_ref_s": hostclock.SPIN_REF_S,
    }


def suite(args: argparse.Namespace, order: list[str]) -> dict[str, Any]:
    """Every workload untraced then traced, probes, cross-run figures."""
    seed = ["--seed", str(args.seed)]
    repeats = ["--repeats", str(args.repeats or DEFAULT_REPEATS)]
    doc: dict[str, Any] = {"environment": environment(), "seed": args.seed, "workloads": {}}
    calib = spawn(["--workload", order[0], "--trace", "1", "--parts", "calib", *seed])
    doc["host.calib_events_per_s"] = calib["values"]["host.calib_events_per_s"]
    for name in order:
        doc["workloads"][name] = spawn(["--workload", name, *seed, *repeats])
    if args.trace:
        for name in order:
            traced = spawn(["--workload", name, "--trace", "1", "--parts", "trace", *seed])
            doc["workloads"][name]["layers"] = traced["traced"]
            doc["workloads"][name]["trace_info"] = traced["info"]
            doc["workloads"][name]["checks"].update(traced["checks"])
        shared = spawn(["--workload", order[0], "--trace", "1", "--parts", "probes,cross", *seed])
        doc["probes"] = shared["probes"]
        doc["cross"] = shared["cross"]
    doc["ok"] = all(all(w["checks"].values()) for w in doc["workloads"].values())
    return doc


def print_summary(doc: dict[str, Any]) -> None:
    print("\n== summary: end to end, by workload")
    names = metrics.END_TO_END_NAMES
    print("  " + f"{'workload':<18}" + "".join(f"{n:>21}" for n in names))
    for name, row in doc["workloads"].items():
        cells = []
        for metric in names:
            if metric in row["host"]:
                cells.append(_fmt(row["host"][metric]["value"]))
            elif metric in row["exact"]:
                cells.append(_fmt(row["exact"][metric]))
            else:
                cells.append("-")
        print("  " + f"{name:<18}" + "".join(f"{c:>21}" for c in cells))
    print(f"  host.calib_events_per_s {_fmt(doc['host.calib_events_per_s'])}")
    failed = [
        f"{name}: {check}"
        for name, row in doc["workloads"].items()
        for check, ok in row["checks"].items()
        if not ok
    ]
    for line in failed:
        print(f"  FAILED {line}")
    print("  all checks passed" if not failed else f"  {len(failed)} checks failed")


def selfcheck(args: argparse.Namespace) -> tuple[dict[str, Any], bool]:
    """A/A: the suite twice on one tree, workload order reversed."""
    order = list(workloads.WORKLOADS)
    first = suite(args, order)
    second = suite(args, order[::-1])
    problems = []
    for name in order:
        a, b = first["workloads"][name], second["workloads"][name]
        for m in metrics.HOST_TIME:
            va, vb = a["host"][m["name"]]["value"], b["host"][m["name"]]["value"]
            drift = abs(va - vb) / va
            a["host"][m["name"]]["aa_drift"] = drift
            if drift > m["bound"]:
                problems.append(f"{name} {m['name']}: {va:.4g} vs {vb:.4g} ({drift:.1%})")
        if a["exact"] != b["exact"] or a["counters"] != b["counters"]:
            problems.append(f"{name}: exact metrics or counters differ between the two sets")
    doc = {"first": first, "second": second, "aa_problems": problems}
    doc["ok"] = first["ok"] and second["ok"] and not problems
    print("\n== A/A self-check")
    for line in problems:
        print(f"  DISAGREE {line}")
    print("  the two sets agree within every bound" if not problems else "  A/A failed")
    return doc, doc["ok"]


# ----------------------------------------------------------------------
def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, help=f"timed repeats (default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float, help="measure about this long instead")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=None)
    parser.add_argument("--parts", help="subset of " + ",".join(PARTS) + " (suite use)")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--out", help="write the JSON document here")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    if args.workload is not None and not args.selfcheck:
        return child(args)
    if args.trace is None:
        args.trace = 1  # the suite measures layers unless told --trace 0
    if args.selfcheck:
        doc, ok = selfcheck(args)
        print_summary(doc["first"])
    else:
        doc = suite(args, list(workloads.WORKLOADS))
        ok = doc["ok"]
        print_summary(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
