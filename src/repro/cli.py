"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo fig3|fig4|fig5|thermal`` -- run a paper scenario, current world
  vs IoTSec, and print the outcome plus a deployment report.
- ``table1`` -- replay all seven Table 1 vulnerability rows.
- ``model-audit`` -- fuzz the model library and print the attack graph +
  hardening plan for a canned smart home.
- ``report`` -- build a secured home, attack it, print the operator view.
- ``metrics`` -- same scenario, but export the metrics registry
  (Prometheus text, or ``--json`` for the raw snapshot).
- ``trace <device>`` -- same scenario, then print the causal chain(s)
  (packet -> alert -> escalation -> posture) for one device.
- ``audit [--since T] [--kind K]`` -- same scenario, then query the
  security audit journal (the flight recorder).
- ``incident <device>`` -- same scenario, then reconstruct the device's
  incident: journal + traces + metrics joined into one timeline
  (``--chaos`` swaps in the fault-injection scenario).
- ``chaos`` -- partition the control channel and crash a µmbox under
  attack; compare the no-resilience baseline against lanes + fail-closed
  + health-check recovery.  ``--plan`` selects the fault plan: the
  built-ins ``standard`` and ``controller``, or a JSON file; malformed
  plans exit 2 with a one-line error.
- ``failover`` -- crash the controller mid-attack and compare cold
  restart against hot-standby failover (``--storm`` compares the ingest
  queue's shedding arms under a 10x alert flood instead).
- ``dlq`` -- run the durable-telemetry home (store-and-forward buffers +
  offset-tracked replay) with a rogue peer injecting malformed and
  reputation-flagged stream records, then inspect the controller's
  dead-letter queue: what was quarantined, from whom, and why.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys


def cmd_demo(args: argparse.Namespace) -> int:
    """A paper figure's home (``arm_<scenario>`` in
    :mod:`repro.faults.scenario`), current world and then IoTSec."""
    from repro.core.metrics import summarize
    from repro.faults import scenario

    arm = getattr(scenario, f"arm_{args.scenario}")
    measure = getattr(scenario, f"measure_{args.scenario}")
    for protect in (False, True):
        armed = arm(protect)
        dep = _run(armed)
        outcome = " ".join(f"{k}={v}" for k, v in measure(*armed).items())
        print(f"[{args.scenario} / {'IoTSec' if protect else 'current world'}] {outcome}")
        print(summarize(dep).render())
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    from repro.devices.vulnerabilities import TABLE1

    print(f"{'#':<3}{'device':<22}{'flaw':<24}{'mitigation'}")
    for row in TABLE1:
        print(f"{row.row:<3}{row.device:<22}{row.flaw_class:<24}{row.mitigation}")
    print("\nRun `pytest benchmarks/bench_table1_vulnerabilities.py -s` for the full replay.")
    return 0


def cmd_model_audit(args: argparse.Namespace) -> int:
    from repro.devices.library import fire_alarm, smart_plug, window_actuator
    from repro.learning.abstract_env import AbstractWorld
    from repro.learning.attackgraph import AttackGraphBuilder, envfact
    from repro.learning.fuzzing import ModelFuzzer, exhaustive_edges
    from repro.netsim.simulator import Simulator
    from repro.policy.ifttt import Recipe

    sim = Simulator()
    devices = {
        d.name: d
        for d in (
            smart_plug("heater_plug", sim, load={"heat_watts": 1500.0}),
            fire_alarm("alarm", sim),
            window_actuator("window", sim),
        )
    }
    world = AbstractWorld({n: d.model for n, d in devices.items()})
    truth, __, states = exhaustive_edges(world)
    fuzz = ModelFuzzer(world, random.Random(args.seed)).run(2000)
    print(f"abstract states: {states}; implicit couplings: {len(truth)}; "
          f"fuzzer coverage: {fuzz.coverage_against(truth):.0%}")
    builder = AttackGraphBuilder(
        {n: (d.model, d.firmware) for n, d in devices.items()},
        recipes=[Recipe("cool-down", "env:temperature", "high", "window", "open")],
    )
    goal = envfact("window", "open")
    for path in builder.paths_to(goal):
        print(f"  [{path.stages} stages] {path}")
    plan = builder.hardening_plan(goal)
    print("hardening plan:", ", ".join(f"{d}->{m}" for d, m in plan) or "(nothing needed)")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """The federation story: one victim site buys fleet immunity (bench E11)."""
    from repro.faults.scenario import run_fleet_immunity

    shared, isolated = (run_fleet_immunity(args.sites, share) for share in (True, False))
    if shared["published_at"] is not None:
        print(f"t={shared['published_at']:.0f}s  site 0 mined + published a signature")
    for site in shared["outcomes"]:
        verdict = "COMPROMISED" if site["compromised"] else "safe (signature blocked it)"
        print(f"site {site['site']}: attacked t={site['attacked_at']:>4.0f}s -> {verdict}")
    print(f"\nfleet losses: {shared['lost']}/{args.sites} "
          f"(without sharing it would have been {isolated['lost']}/{args.sites})")
    return 0


def cmd_federation(args: argparse.Namespace) -> int:
    """The multi-site control plane: blackout drill or parallel scale run."""
    if args.scale:
        from repro.federation import run_federation, shard_fleet

        out = run_federation(
            shard_fleet(args.scale, args.sites), workers=args.workers
        )
        print(
            f"{out['devices']:,} devices across {out['sites']} sites "
            f"({out['mode']}): {out['events']:,} sim events in "
            f"{out['wall_s']:.1f}s = {out['aggregate_events_per_s']:,.0f} "
            "events/s aggregate"
        )
        for row in out["per_site"]:
            print(
                f"  {row['site']}: {row['devices']} devices, "
                f"{row['events']:,} events, build {row['build_s']:.1f}s, "
                f"run {row['run_s']:.1f}s, blocked "
                f"{row['attacks_blocked']}/{row['attacks_launched']}"
            )
        print(
            f"compromised: {out['compromised']} "
            f"(blocked {out['attacks_blocked']}/{out['attacks_launched']})"
        )
        return 0

    from repro.faults.scenario import (
        FEDERATION_BLACKOUT_END,
        FEDERATION_BLACKOUT_START,
        run_federation_blackout_scenario,
    )

    out = run_federation_blackout_scenario(sites=args.sites)
    window = f"t={FEDERATION_BLACKOUT_START:.0f}..{FEDERATION_BLACKOUT_END:.0f}s"
    print(f"coordinator blackout drill: {args.sites} sites, WAN dark {window}\n")
    print(f"  patient zero compromised pre-signature: "
          f"{'yes' if out['patient_zero_compromised'] else 'no'}")
    print(f"  mid-blackout attacks blocked on cached policy: "
          f"{out['attacks_blocked']}/{out['attacks_launched'] - 1}")
    print(f"  enforcement gaps during blackout: {out['enforcement_gaps']}")
    print(f"  signatures versioned fleet-wide: {out['signatures_propagated']} "
          f"(propagation lag {out['propagation_lag_v1']:.3f}s)")
    print(f"  autonomy spells journaled: {out['autonomy_enters']} enter / "
          f"{out['autonomy_exits']} exit ({out['offline_s']:.0f} site-seconds)")
    print(f"  out-of-order updates on heal: {out['out_of_order']}")
    print(f"  poisoned reports quarantined to DLQ: {out['dlq_quarantined']}")
    print(f"  reconverged after heal: {'yes' if out['converged'] else 'NO'}")
    if out["enforcement_gaps"]:
        for detail in out["gap_details"]:
            print(f"    GAP: {detail}")
        return 1
    print("\nevery site kept enforcing on cached policy for the whole outage")
    return 0


def cmd_policy(args: argparse.Namespace) -> int:
    """Export a sample home's default policy as reviewable JSON."""
    from repro.faults.scenario import standard_home
    from repro.policy.serialization import dumps

    print(dumps(standard_home().policy))
    return 0


def _run(armed, watch=None, render=None):
    """Run an armed scenario (:mod:`repro.faults.scenario`) to its
    campaign's horizon and hand back the finished deployment.

    With ``watch``, the run is cut into slices of that many simulated
    seconds and ``render(dep)`` is printed between them: each frame shows
    the home going into its instant (what fires *at* it opens the next
    slice, so periodic windows read whole periods).  Slicing adds no
    event, so a watched run is the run it reports on.
    """
    dep, runner = armed
    horizon = runner.campaign.horizon
    if watch is not None:
        at = watch
        while at <= horizon:
            dep.run(until=math.nextafter(at, 0.0))
            print(f"--- t={at:.1f}s ---")
            print(render(dep))
            print()
            at += watch
    dep.run(until=horizon)
    return dep


def _attacked_home(watch=None, render=None):
    """The canned scenario behind ``report``/``metrics``/``trace``/
    ``audit``/``incident``: a secured two-device home whose camera gets
    brute-forced."""
    from repro.faults.scenario import arm_attacked_home

    return _run(arm_attacked_home(), watch, render)


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.metrics import summarize

    print(summarize(_attacked_home()).render())
    return 0


def _bad_watch(args: argparse.Namespace) -> bool:
    """``--watch N`` needs a positive period (usage error: exit 2)."""
    if args.watch is not None and args.watch <= 0:
        print("error: --watch period must be positive", file=sys.stderr)
        return True
    return False


def _unknown_device(dep, device: str) -> bool:
    if device in dep.devices:
        return False
    known = ", ".join(sorted(dep.devices))
    print(f"error: unknown device {device!r} (known: {known})")
    return True


def _load_document(path: str, what: str, parse):
    """Read + parse a JSON document named on the command line; any
    failure is a usage error: one line on stderr, ``None`` (exit 2)."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read())
    except OSError as exc:
        print(f"error: cannot read {what} {path!r}: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import to_prometheus

    if _bad_watch(args):
        return 2

    def render(dep) -> str:
        if args.json:
            return json.dumps(dep.sim.metrics.snapshot(), indent=2, sort_keys=True)
        return to_prometheus(dep.sim.metrics)

    dep = _attacked_home(args.watch, render)
    registry = dep.sim.metrics
    if not registry.enabled or not any(registry.snapshot().values()):
        print("error: metrics registry is empty (observability disabled?)")
        return 1
    if args.watch is not None:
        print(f"--- t={dep.sim.now:.1f}s (final) ---")
    print(render(dep))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import trace_as_dicts

    dep = _attacked_home()
    if _unknown_device(dep, args.device):
        return 1
    tracer = dep.sim.tracer
    trace_ids = tracer.traces_for(args.device)
    if args.json:
        print(json.dumps([trace_as_dicts(tracer, t) for t in trace_ids], indent=2))
        return 0
    if not trace_ids:
        print(f"no traces recorded for device {args.device!r}")
        return 1
    for trace_id in trace_ids:
        print(tracer.render(trace_id))
    return 0


def cmd_journal_audit(args: argparse.Namespace) -> int:
    """Query the flight recorder for the canned attacked-home scenario."""
    dep = _attacked_home()
    entries = dep.sim.journal.entries(since=args.since, kind=args.kind)
    if args.json:
        print(json.dumps([e.as_dict() for e in entries], indent=2))
        return 0
    stats = dep.sim.journal.stats()
    print(
        f"audit journal: {stats['recorded']} recorded,"
        f" {stats['retained']} retained, {stats['evicted']} evicted"
        f" ({len(entries)} match)"
    )
    for entry in entries:
        trace = f" trace={entry.trace_id}" if entry.trace_id is not None else ""
        detail = " ".join(
            f"{k}={v}" for k, v in entry.fields.items() if v not in ("", None)
        )
        print(
            f"  #{entry.seq:<5} t={entry.at:>9.4f}  {entry.kind:<16}"
            f" {entry.device or '-':<10}{trace}  {detail}".rstrip()
        )
    return 0


def _print_arms(args, results: list[dict], cols: tuple[str, ...], doc=None, header=()) -> bool:
    """The one printer of a scenario's arms.  ``--json`` dumps ``doc``
    (default: the result dicts) and returns False; otherwise prints the
    ``header`` lines and one column per arm, and returns True so the
    caller can add its text-only trailer."""
    if args.json:
        print(json.dumps(results if doc is None else doc, indent=2))
        return False
    for line in header:
        print(line)
    print(f"\n{'metric':<26}" + "".join(f"{r['arm']:>12}" for r in results))
    for col in cols:
        cells = "".join(f"{str(r.get(col)):>12}" for r in results)
        print(f"{col:<26}{cells}")
    return True


def _failover_comparison(args: argparse.Namespace) -> int:
    """Both arms of the controller-crash experiment (bench E13a)."""
    from repro.faults.scenario import run_failover_scenario

    results = [run_failover_scenario(standby, seed=args.seed) for standby in (False, True)]
    cols = (
        "attack_attempts",
        "cam_login_successes",
        "blind_window_s",
        "cam_enforced_at",
        "checkpoints",
        "failovers",
        "restarts",
        "ctrl_retries",
        "ctrl_unacked",
        "events",
    )
    crash, standby = results
    if _print_arms(args, results, cols) and crash["blind_window_s"] > 0:
        ratio = standby["blind_window_s"] / crash["blind_window_s"]
        print(
            f"\nblind window: {crash['blind_window_s']}s (cold restart) -> "
            f"{standby['blind_window_s']}s (hot standby, {ratio:.1%} of the outage)"
        )
    return 0


def cmd_failover(args: argparse.Namespace) -> int:
    """Controller survivability, both arms (bench E13).

    Default: crash the controller mid-attack and compare the cold-restart
    blind window against hot-standby failover.  ``--storm``: flood the
    ingest queue 10x over its service rate and compare plain drop-tail
    against prioritized shedding.
    """
    if not args.storm:
        return _failover_comparison(args)

    from repro.faults.scenario import run_storm_scenario

    results = [run_storm_scenario(shedding, seed=args.seed) for shedding in (False, True)]
    if _print_arms(args, results, ("enforcing_processed_frac", "shed_transitions", "events")):
        for cls in ("enforcing", "telemetry"):
            cells = "".join(f"{str(r['p99_latency_s'][cls]):>12}" for r in results)
            print(f"{'p99_latency_s[' + cls + ']':<26}{cells}")
        fifo, shed = results
        print(
            f"\nenforcing alerts kept under the storm: "
            f"{fifo['enforcing_processed_frac']:.1%} (drop-tail) -> "
            f"{shed['enforcing_processed_frac']:.1%} (prioritized shedding)"
        )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the standard resilience scenario under injected faults, both arms.

    The baseline arm has no reliable delivery, no health checks and
    fail-open µmboxes; the resilient arm holds control messages on lanes
    through the partition, fails closed, and reboots + re-pins the crashed
    µmbox.  The printed exposure window is the headline number of bench
    E12.

    ``--plan`` picks the fault schedule: ``standard`` (partition + µmbox
    crash), ``controller`` (delegates to the E13 controller-crash
    comparison), or a path to a JSON plan document.  A malformed plan is
    a usage error: one line on stderr, exit status 2.
    """
    from repro.faults.chaos import ChaosGenerator
    from repro.faults.plan import FaultPlan
    from repro.faults.scenario import run_resilience_scenario, standard_fault_plan

    if args.plan == "controller":
        return _failover_comparison(args)
    if args.random:
        plan = ChaosGenerator(args.seed).generate(
            args.duration,
            endpoints=("*",),
            devices=("cam", "plug"),
            link_flaps=0,
            partitions=1,
            crashes=2,
            max_fault=min(5.0, args.duration / 4),
        )
    elif args.plan == "standard":
        plan = standard_fault_plan()
    else:
        plan = _load_document(args.plan, "fault plan", FaultPlan.from_json)
        if plan is None:
            return 2
    arms = [False] if args.no_resilience else [False, True]
    results = [
        run_resilience_scenario(
            resilient,
            seed=args.seed,
            horizon=args.duration,
            drop_prob=args.drop,
            jitter=args.jitter,
            plan=plan,
        )
        for resilient in arms
    ]
    header = [f"fault plan: {plan!r}"]
    for event in plan:
        extra = f" for {event.duration}s" if event.duration else ""
        header.append(f"  t={event.at:>7.3f}  {event.kind:<12} {event.target}{extra}")
    cols = (
        "attack_attempts",
        "attack_successes",
        "exposure_s",
        "mean_time_to_reenforce_s",
        "ctrl_retries",
        "ctrl_unacked",
        "mbox_restarts",
        "fail_open_passes",
    )
    doc = {"plan": plan.as_dict(), "arms": results}
    if _print_arms(args, results, cols, doc, header) and len(results) == 2:
        base, res = results
        print(
            f"\nexposure window: {base['exposure_s']}s -> {res['exposure_s']}s "
            f"({'bounded' if res['exposure_s'] < base['exposure_s'] else 'NOT bounded'})"
        )
    return 0


def _campaign_summary(score: dict) -> list[tuple]:
    ttc = score["time_to_containment_s"]
    return [
        ("class", score["class"]),
        ("stages ok", f"{score['stages_ok']}/{score['stages']}"),
        ("attacked", ", ".join(score["attacked"]) or "-"),
        ("alerted", ", ".join(score["alerted"]) or "-"),
        ("detection precision", f"{score['detection_precision']:.2f}"),
        ("detection recall", f"{score['detection_recall']:.2f}"),
        (
            "time to containment",
            ", ".join(f"{d}={t:.2f}s" for d, t in ttc.items()) or "-",
        ),
        ("exposure total", f"{score['total_exposure_s']:.2f}s"),
        ("containment misses", ", ".join(score["containment_misses"]) or "none"),
        ("containment SLO breaches", score["containment_breaches"]),
        ("fabric degraded", score["fabric_degraded"]),
        ("graceful degradation", "ok" if score["graceful_degradation"]["ok"] else "VIOLATED"),
        ("journal digest", score["journal_digest"][:16]),
    ]


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run adversarial campaigns against the standard home and score them.

    ``--list`` prints the shipped corpus; ``--name`` runs one campaign,
    ``--class`` a whole class, ``--file`` a campaign JSON document.  A
    malformed campaign file is a usage error: one line on stderr, exit
    status 2 (mirroring ``chaos --plan``).
    """
    from repro.faults.campaign import Campaign
    from repro.faults.campaign_library import (
        CAMPAIGNS,
        campaigns_by_class,
        run_campaign,
    )

    if args.file:
        campaign = _load_document(args.file, "campaign", Campaign.from_json)
        if campaign is None:
            return 2
        selected = [campaign]
    elif args.name:
        if args.name not in CAMPAIGNS:
            print(
                f"error: no campaign named {args.name!r} (see --list)",
                file=sys.stderr,
            )
            return 2
        selected = [CAMPAIGNS[args.name]]
    elif args.campaign_class:
        selected = campaigns_by_class(args.campaign_class)
    else:
        selected = []

    if args.list or not selected:
        if args.json:
            print(json.dumps([c.as_dict() for c in CAMPAIGNS.values()], indent=2))
            return 0
        print(f"{'campaign':<28}{'class':<20}{'stages':>7}  expect contained")
        for c in CAMPAIGNS.values():
            print(
                f"{c.name:<28}{c.campaign_class:<20}{len(c.stages):>7}  "
                f"{', '.join(c.expect_contained) or '-'}"
            )
        return 0

    scores = [run_campaign(c, seed=args.seed) for c in selected]
    if args.json:
        print(json.dumps(scores, indent=2, default=str))
        return 0
    for score in scores:
        print(f"\ncampaign: {score['campaign']}  (seed {score['seed']})")
        for label, value in _campaign_summary(score):
            print(f"  {label:<26}{value}")
    missed = sorted({m for s in scores for m in s["containment_misses"]})
    if missed:
        print(f"\nCONTAINMENT MISSED: {', '.join(missed)}")
        return 1
    print(f"\nall {len(scores)} campaign(s) fully contained")
    return 0


def _rogue_peers(dep) -> None:
    """``dlq``'s twist on the attacked home: a rogue peer injects
    malformed stream records, and a reputation-flagged host a spoofed one."""
    consumer = dep.controller.stream
    assert consumer is not None
    # Reputation decision: everything "rogue-host" sends is quarantined.
    consumer.flag_host("rogue-host")

    def inject_flagged() -> None:
        dep.channel.send(
            "rogue-host",
            dep.CONTROLLER,
            "stream",
            {
                "host": "rogue-host",
                "lane": "bulk",
                "records": [
                    {
                        "offset": 1,
                        "at": dep.sim.now,
                        "body": {
                            "device": "cam",
                            "kind": "telemetry",
                            "mbox": "spoofed",
                            "detail": {"state": "recording"},
                            "trace": None,
                        },
                    }
                ],
            },
        )

    def inject_malformed() -> None:
        dep.channel.send(
            "buggy-host",
            dep.CONTROLLER,
            "stream",
            {
                "host": "buggy-host",
                "lane": "bulk",
                "records": [
                    {"offset": 1, "at": dep.sim.now, "body": {"device": "", "kind": "telemetry"}},
                    {"offset": 2, "at": dep.sim.now, "body": {"device": "plug", "kind": ""}},
                ],
            },
        )

    dep.sim.schedule(5.0, inject_flagged)
    dep.sim.schedule(6.0, inject_malformed)


def cmd_dlq(args: argparse.Namespace) -> int:
    """Inspect the dead-letter queue of the durable-telemetry scenario:
    the attacked home with its alerts on the store-and-forward stream."""
    from repro.faults.scenario import arm_attacked_home

    armed = arm_attacked_home(durable_telemetry=True)
    _rogue_peers(armed[0])
    dep = _run(armed)
    dlq = dep.controller.dlq
    consumer = dep.controller.stream
    assert dlq is not None and consumer is not None
    entries = dlq.entries(device=args.device or None, reason=args.reason or None)
    if args.json:
        print(
            json.dumps(
                {
                    "stats": dlq.stats(),
                    "consumer": consumer.stats(),
                    "entries": entries,
                },
                indent=2,
                default=str,
            )
        )
        return 0
    stats = dlq.stats()
    reasons = ", ".join(f"{k}={v}" for k, v in sorted(stats["by_reason"].items()))
    print(
        f"dead-letter queue: {stats['depth']} retained,"
        f" {stats['quarantined']} quarantined ({reasons or 'none'})"
    )
    print(
        f"stream consumer: {consumer.delivered} delivered,"
        f" {consumer.duplicates} duplicates, {consumer.gaps} gaps"
    )
    if not entries:
        print("(no matching entries)")
        return 0
    print(f"\n{'t':>9}  {'host':<12}{'reason':<18}{'device':<10}{'kind':<12}offset")
    for entry in entries:
        print(
            f"{entry['at']:>9.3f}  {entry['host']:<12}{entry['reason']:<18}"
            f"{entry['device'] or '-':<10}{entry['alert_kind'] or '-':<12}"
            f"{entry['offset'] if entry['offset'] is not None else '-'}"
        )
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    from repro.faults.scenario import arm_health, measure_health

    if _bad_watch(args):
        return 2
    try:
        armed = arm_health(args.plan, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    plane = _run(armed, args.watch, lambda dep: dep.health_plane.render()).health_plane
    result = {"plan": args.plan, **measure_health(*armed)}
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
        return 0
    if args.plan != "none":
        print(f"fault plan: {args.plan}")
    print(plane.render())
    if result["breach_events"]:
        print("\nbreach chains (journaled, trace-linked):")
        recovered = {r["trace"]: r for r in result["recovery_events"]}
        for breach in result["breach_events"]:
            rec = recovered.get(breach["trace"])
            tail = (
                f" -> recovered t={rec['at']:.1f}s (after {rec['breach_s']:.1f}s)"
                if rec is not None
                else " -> STILL BREACHED"
            )
            print(
                f"  t={breach['at']:>7.1f}s  {breach['slo']}"
                f" [{breach['severity']}] trace={breach['trace']}{tail}"
            )
    return 0


def cmd_incident(args: argparse.Namespace) -> int:
    from repro.obs import reconstruct

    if args.chaos:
        from repro.faults.scenario import arm_resilience

        dep = _run(arm_resilience(True, health=args.site))
    else:
        dep = _attacked_home()
    if _unknown_device(dep, args.device):
        return 1
    state = dep.controller.pipeline.system_state()
    incident = reconstruct(
        dep.sim,
        args.device,
        policy=dep.policy,
        state=state,
        dlq=dep.controller.dlq,
        site_events=args.site,
    )
    if args.json:
        print(json.dumps(incident.as_dict(), indent=2))
    else:
        print(incident.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="IoTSec (HotNets 2015) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a paper scenario, both arms")
    demo.add_argument("scenario", choices=("fig3", "fig4", "fig5", "thermal"))
    demo.set_defaults(fn=cmd_demo)

    table1 = sub.add_parser("table1", help="list the Table 1 registry")
    table1.set_defaults(fn=cmd_table1)

    model_audit = sub.add_parser(
        "model-audit", help="fuzz models + attack-graph a canned home"
    )
    model_audit.add_argument("--seed", type=int, default=7)
    model_audit.set_defaults(fn=cmd_model_audit)

    audit = sub.add_parser("audit", help="query the security audit journal")
    audit.add_argument("--since", type=float, default=None, help="simulated time floor")
    audit.add_argument("--kind", default=None, help="filter by entry kind")
    audit.add_argument("--json", action="store_true", help="entry dicts instead of text")
    audit.set_defaults(fn=cmd_journal_audit)

    incident = sub.add_parser(
        "incident", help="reconstruct one device's incident from the flight recorder"
    )
    incident.add_argument("device", nargs="?", default="cam")
    incident.add_argument("--json", action="store_true", help="incident dict instead of text")
    incident.add_argument(
        "--chaos",
        action="store_true",
        help="reconstruct from the chaos scenario (partition + µmbox crash)"
        " instead of the canned brute-force home",
    )
    incident.add_argument(
        "--site",
        action="store_true",
        help="fold site-scoped events (SLO breaches, health transitions,"
        " stream replays, failovers) into the device timeline",
    )
    incident.set_defaults(fn=cmd_incident)

    report = sub.add_parser("report", help="operator report for a secured home under attack")
    report.set_defaults(fn=cmd_report)

    metrics = sub.add_parser("metrics", help="export the metrics registry for the report scenario")
    metrics.add_argument("--json", action="store_true", help="raw snapshot instead of Prometheus text")
    metrics.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="N",
        help="re-render the snapshot every N simulated seconds while the"
        " scenario runs (plus one final render)",
    )
    metrics.set_defaults(fn=cmd_metrics)

    health = sub.add_parser(
        "health", help="SLO burn rates + subsystem health rollup for a seeded run"
    )
    health.add_argument(
        "--plan",
        default="none",
        help="scenario to run: none (default, the all-green attacked home),"
        " standard, controller or long-partition",
    )
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--json", action="store_true", help="summary dict instead of text")
    health.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="N",
        help="re-render the health report every N simulated seconds",
    )
    health.set_defaults(fn=cmd_health)

    trace = sub.add_parser("trace", help="print causal traces (packet -> posture) for one device")
    trace.add_argument("device", nargs="?", default="cam")
    trace.add_argument("--json", action="store_true", help="span dicts instead of rendered text")
    trace.set_defaults(fn=cmd_trace)

    policy = sub.add_parser("policy", help="export a sample default policy as JSON")
    policy.set_defaults(fn=cmd_policy)

    federation = sub.add_parser(
        "federation",
        help="multi-site control plane: coordinator-blackout drill or "
        "parallel scale run",
    )
    federation.add_argument(
        "--sites", type=int, default=4, help="number of federated sites"
    )
    federation.add_argument(
        "--scale",
        type=int,
        default=0,
        metavar="N",
        help="instead of the blackout drill, shard an N-device fleet "
        "across the sites in parallel worker processes",
    )
    federation.add_argument(
        "--workers", type=int, default=None, help="worker processes for --scale"
    )
    federation.set_defaults(fn=cmd_federation)

    fleet = sub.add_parser("fleet", help="federated-signature story across N sites")
    fleet.add_argument("--sites", type=int, default=6)
    fleet.set_defaults(fn=cmd_fleet)

    campaign = sub.add_parser(
        "campaign",
        help="run adversarial multi-stage campaigns and print per-class "
        "containment scorecards",
    )
    campaign.add_argument("--list", action="store_true", help="list the shipped corpus")
    campaign.add_argument("--name", default=None, help="run one named campaign")
    campaign.add_argument(
        "--class",
        dest="campaign_class",
        default=None,
        choices=("single-flaw", "lateral-movement", "fabric-degradation", "automation-abuse"),
        help="run every campaign of one class",
    )
    campaign.add_argument(
        "--file", default=None, help="run a campaign from a JSON document"
    )
    campaign.add_argument(
        "--seed", type=int, default=None, help="override the campaign's baked-in seed"
    )
    campaign.add_argument(
        "--json", action="store_true", help="scorecard dicts instead of text"
    )
    campaign.set_defaults(fn=cmd_campaign)

    chaos = sub.add_parser(
        "chaos", help="inject faults (partition, µmbox crash) and compare arms"
    )
    chaos.add_argument("--seed", type=int, default=7, help="chaos + fault-model seed")
    chaos.add_argument(
        "--plan",
        default="standard",
        help="fault plan: 'standard', 'controller', or a JSON plan file",
    )
    chaos.add_argument("--duration", type=float, default=30.0, help="simulated horizon")
    chaos.add_argument("--drop", type=float, default=0.0, help="background control-loss prob")
    chaos.add_argument("--jitter", type=float, default=0.0, help="max extra control delay")
    chaos.add_argument(
        "--random",
        action="store_true",
        help="draw the fault plan from the seeded chaos generator"
        " instead of the standard partition+crash plan",
    )
    chaos.add_argument(
        "--no-resilience", action="store_true", help="run only the baseline arm"
    )
    chaos.add_argument("--json", action="store_true", help="plan + both arms as JSON")
    chaos.set_defaults(fn=cmd_chaos)

    failover = sub.add_parser(
        "failover", help="controller crash: cold restart vs hot-standby takeover"
    )
    failover.add_argument("--seed", type=int, default=7, help="scenario seed")
    failover.add_argument(
        "--storm",
        action="store_true",
        help="compare ingest-queue arms under a 10x alert storm instead",
    )
    failover.add_argument("--json", action="store_true", help="both arms as JSON")
    failover.set_defaults(fn=cmd_failover)

    dlq = sub.add_parser(
        "dlq", help="inspect the durable-telemetry dead-letter queue"
    )
    dlq.add_argument("--device", default=None, help="only entries for this device")
    dlq.add_argument("--reason", default=None, help="only entries with this refusal reason")
    dlq.add_argument("--json", action="store_true", help="stats + entries as JSON")
    dlq.set_defaults(fn=cmd_dlq)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
