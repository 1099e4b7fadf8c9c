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
  built-ins ``standard`` and ``controller``, or a JSON file.
- ``failover`` -- crash the controller mid-attack and compare cold
  restart against hot-standby failover (``--storm`` compares the ingest
  queue's two arms under a 10x alert flood instead).
- ``dlq`` -- run the durable-telemetry home (store-and-forward buffers +
  offset-tracked replay) with a rogue peer injecting malformed and
  reputation-flagged stream records, then inspect the controller's
  dead-letter queue: what was quarantined, from whom, and why.

Every command takes one path: build its scenario (:mod:`repro.faults.
scenario`) from the command line's values, run it, print it -- ``--json``
or text, through :func:`_emit` -- and return its exit status.  0 is
success; 1 is a finding (an unknown device, a containment miss, an
enforcement gap, an empty registry); 2 is a usage error, printed by
:func:`main` as one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from typing import Any, Callable


class UsageError(Exception):
    """A bad value on the command line.  Only :func:`main` catches it: one
    ``error: <message>`` line on stderr, exit status 2."""


def _armed(build: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Build a scenario -- arm it, load or generate its fault plan, shard
    its fleet -- from command-line values.  The scenario checks them: a
    ``ValueError`` it raises here is a usage error, with its own message.
    Nothing catches what the run or the measure raises."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run(armed, watch: float | None = None, render=None):
    """Run an armed scenario to its campaign's horizon; returns ``armed``.

    With ``watch``, the run is cut into slices of that many simulated
    seconds and ``render(dep)`` prints a frame between them: each frame
    shows the home going into its instant (what fires *at* it opens the
    next slice, so periodic windows read whole periods).  Slicing adds no
    event, so a watched run is the run it reports on.
    """
    from repro.faults.scenario import horizon_of

    world, end = armed[0], horizon_of(armed)
    if watch is not None:
        if not 0 < watch < math.inf:
            raise UsageError("--watch period must be positive and finite")
        at = watch
        while at <= end:
            world.run(until=math.nextafter(at, 0.0))
            print(f"--- t={at:.1f}s ---")
            render(world)
            print()
            at += watch
    world.run(until=end)
    return armed


def _arms(arm: Callable[..., Any], measure: Callable[..., dict], variants, **values) -> list[dict]:
    """Each arm of a scenario in turn: ``arm(variant, **values)`` built
    from the command line, run, measured."""
    return [measure(*_run(_armed(arm, variant, **values))) for variant in variants]


def _emit(args: argparse.Namespace, doc: Any, text: Callable[[], int | None], **dump) -> int:
    """The one printer.  With ``--json``, ``doc`` as indented JSON
    (``dump`` goes to ``json.dumps``), exit 0; otherwise ``text()`` prints
    the operator view and returns the exit status (``None`` for 0)."""
    if getattr(args, "json", False):
        print(json.dumps(doc, indent=2, **dump))
        return 0
    return text() or 0


def _row(label: str, cells) -> None:
    print(f"{label:<26}" + "".join(f"{str(cell):>12}" for cell in cells))


def _table(results: list[dict], cols: tuple[str, ...]) -> None:
    """A comparison's arms side by side: one column per arm, one row per
    result key."""
    print()
    _row("metric", [r["arm"] for r in results])
    for col in cols:
        _row(col, [r.get(col) for r in results])


def _load_document(path: str, what: str, parse: Callable[[str], Any]) -> Any:
    """Read and parse a JSON document named on the command line."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path!r}: {exc}") from None
    return _armed(parse, text)


def _unknown_device(dep, device: str) -> bool:
    if device in dep.devices:
        return False
    known = ", ".join(sorted(dep.devices))
    print(f"error: unknown device {device!r} (known: {known})")
    return True


def _attacked_home(watch: float | None = None, render=None):
    """The canned scenario behind ``report``/``metrics``/``trace``/
    ``audit``/``incident``, run: a secured two-device home whose camera
    gets brute-forced."""
    from repro.faults.scenario import arm_attacked_home

    return _run(arm_attacked_home(), watch, render)[0]


def cmd_demo(args: argparse.Namespace) -> int:
    """A paper figure's home (``arm_<scenario>`` in
    :mod:`repro.faults.scenario`), current world and then IoTSec."""
    from repro.core.metrics import summarize
    from repro.faults import scenario

    arm = getattr(scenario, f"arm_{args.scenario}")
    measure = getattr(scenario, f"measure_{args.scenario}")
    for protect in (False, True):
        dep, runner = _run(arm(protect))
        outcome = " ".join(f"{k}={v}" for k, v in measure(dep, runner).items())
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
    from repro.faults.scenario import arm_fleet_immunity, measure_fleet_immunity

    shared, isolated = _arms(
        arm_fleet_immunity, measure_fleet_immunity, (True, False), sites=args.sites
    )
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

        out = run_federation(_armed(shard_fleet, args.scale, args.sites), workers=args.workers)
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
        arm_federation_blackout,
        measure_federation_blackout,
    )

    out = measure_federation_blackout(*_run(_armed(arm_federation_blackout, args.sites)))
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
    from repro.faults.scenario import STANDARD_HOME
    from repro.policy.serialization import dumps

    print(dumps(STANDARD_HOME.deploy().policy))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.core.metrics import summarize

    print(summarize(_attacked_home()).render())
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import to_prometheus

    def frame(dep) -> int:
        registry = dep.sim.metrics
        return _emit(
            args, registry.snapshot(), lambda: print(to_prometheus(registry)), sort_keys=True
        )

    dep = _attacked_home(args.watch, frame)
    registry = dep.sim.metrics
    if not registry.enabled or not any(registry.snapshot().values()):
        print("error: metrics registry is empty (observability disabled?)")
        return 1
    if args.watch is not None:
        print(f"--- t={dep.sim.now:.1f}s (final) ---")
    return frame(dep)


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import trace_as_dicts

    dep = _attacked_home()
    if _unknown_device(dep, args.device):
        return 1
    tracer = dep.sim.tracer
    trace_ids = tracer.traces_for(args.device)

    def text() -> int | None:
        if not trace_ids:
            print(f"no traces recorded for device {args.device!r}")
            return 1
        for trace_id in trace_ids:
            print(tracer.render(trace_id))

    return _emit(args, [trace_as_dicts(tracer, t) for t in trace_ids], text)


def cmd_journal_audit(args: argparse.Namespace) -> int:
    """Query the flight recorder for the canned attacked-home scenario."""
    dep = _attacked_home()
    entries = dep.sim.journal.entries(since=args.since, kind=args.kind)

    def text() -> None:
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

    return _emit(args, [e.as_dict() for e in entries], text)


#: The rows ``failover`` prints for its two arms.
FAILOVER_COLS = (
    "attack_attempts", "cam_login_successes", "blind_window_s", "cam_enforced_at",
    "checkpoints", "failovers", "restarts", "ctrl_retries", "ctrl_unacked", "events",
)
#: The rows ``chaos`` prints for its arms.
CHAOS_COLS = (
    "attack_attempts", "attack_successes", "exposure_s", "mean_time_to_reenforce_s",
    "ctrl_retries", "ctrl_unacked", "mbox_restarts", "fail_open_passes",
)


def _failover_comparison(args: argparse.Namespace) -> int:
    """Both arms of the controller-crash experiment (bench E13a)."""
    from repro.faults.scenario import arm_failover, measure_failover

    results = _arms(arm_failover, measure_failover, (False, True), seed=args.seed)
    crash, standby = results

    def text() -> None:
        _table(results, FAILOVER_COLS)
        if crash["blind_window_s"] > 0:
            ratio = standby["blind_window_s"] / crash["blind_window_s"]
            print(
                f"\nblind window: {crash['blind_window_s']}s (cold restart) -> "
                f"{standby['blind_window_s']}s (hot standby, {ratio:.1%} of the outage)"
            )

    return _emit(args, results, text)


def cmd_failover(args: argparse.Namespace) -> int:
    """Controller survivability, both arms (bench E13).

    Default: crash the controller mid-attack and compare the cold-restart
    blind window against hot-standby failover.  ``--storm``: flood the
    ingest queue 10x over its service rate and compare plain drop-tail
    against the two-class priority queue.
    """
    if not args.storm:
        return _failover_comparison(args)

    from repro.core.overload import CLASS_NAMES
    from repro.faults.scenario import arm_storm, measure_storm

    results = _arms(arm_storm, measure_storm, (False, True), seed=args.seed)
    fifo, shed = results

    def text() -> None:
        _table(results, ("enforcing_processed_frac", "events"))
        for cls in CLASS_NAMES:
            _row(f"p99_latency_s[{cls}]", [r["p99_latency_s"][cls] for r in results])
        print(
            f"\nenforcing alerts kept under the storm: "
            f"{fifo['enforcing_processed_frac']:.1%} (drop-tail) -> "
            f"{shed['enforcing_processed_frac']:.1%} (prioritized shedding)"
        )

    return _emit(args, results, text)


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the standard resilience scenario under injected faults, both arms.

    The baseline arm has no reliable delivery, no health checks and
    fail-open µmboxes; the resilient arm holds control messages on lanes
    through the partition, fails closed, and reboots + re-pins the crashed
    µmbox.  The printed exposure window is the headline number of bench
    E12.

    ``--plan`` picks the fault schedule: ``standard`` (partition + µmbox
    crash), ``controller`` (delegates to the E13 controller-crash
    comparison), or a path to a JSON plan document.
    """
    from repro.faults.chaos import ChaosGenerator
    from repro.faults.plan import FaultPlan
    from repro.faults.scenario import arm_resilience, measure_resilience, standard_fault_plan

    if args.plan == "controller":
        return _failover_comparison(args)
    if args.random:
        plan = _armed(
            ChaosGenerator(args.seed).generate,
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
    results = _arms(
        arm_resilience,
        measure_resilience,
        (False,) if args.no_resilience else (False, True),
        seed=args.seed,
        horizon=args.duration,
        drop_prob=args.drop,
        jitter=args.jitter,
        plan=plan,
    )

    def text() -> None:
        print(f"fault plan: {plan!r}")
        for event in plan:
            extra = f" for {event.duration}s" if event.duration else ""
            print(f"  t={event.at:>7.3f}  {event.kind:<12} {event.target}{extra}")
        _table(results, CHAOS_COLS)
        if len(results) == 2:
            base, res = results
            print(
                f"\nexposure window: {base['exposure_s']}s -> {res['exposure_s']}s "
                f"({'bounded' if res['exposure_s'] < base['exposure_s'] else 'NOT bounded'})"
            )

    return _emit(args, {"plan": plan.as_dict(), "arms": results}, text)


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
    ``--class`` a whole class, ``--file`` a campaign JSON document.
    """
    from repro.faults.campaign import Campaign
    from repro.faults.campaign_library import (
        CAMPAIGNS,
        arm_campaign,
        campaigns_by_class,
        measure_campaign,
    )

    if args.file:
        selected = [_load_document(args.file, "campaign", Campaign.from_json)]
    elif args.name:
        if args.name not in CAMPAIGNS:
            raise UsageError(f"no campaign named {args.name!r} (see --list)")
        selected = [CAMPAIGNS[args.name]]
    elif args.campaign_class:
        selected = campaigns_by_class(args.campaign_class)
    else:
        selected = []

    if args.list or not selected:

        def listing() -> None:
            print(f"{'campaign':<28}{'class':<20}{'stages':>7}  expect contained")
            for c in CAMPAIGNS.values():
                print(
                    f"{c.name:<28}{c.campaign_class:<20}{len(c.stages):>7}  "
                    f"{', '.join(c.expect_contained) or '-'}"
                )

        return _emit(args, [c.as_dict() for c in CAMPAIGNS.values()], listing)

    scores = _arms(arm_campaign, measure_campaign, selected, seed=args.seed)

    def text() -> int:
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

    return _emit(args, scores, text, default=str)


def cmd_dlq(args: argparse.Namespace) -> int:
    """Inspect the dead-letter queue of the durable-telemetry scenario:
    the attacked home with its alerts on the store-and-forward stream."""
    from repro.faults.scenario import arm_dlq

    dep = _run(arm_dlq())[0]
    dlq = dep.controller.dlq
    consumer = dep.controller.stream
    assert dlq is not None and consumer is not None
    entries = dlq.entries(device=args.device or None, reason=args.reason or None)
    stats = dlq.stats()

    def text() -> None:
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
            return
        print(f"\n{'t':>9}  {'host':<12}{'reason':<18}{'device':<10}{'kind':<12}offset")
        for entry in entries:
            print(
                f"{entry['at']:>9.3f}  {entry['host']:<12}{entry['reason']:<18}"
                f"{entry['device'] or '-':<10}{entry['alert_kind'] or '-':<12}"
                f"{entry['offset'] if entry['offset'] is not None else '-'}"
            )

    doc = {"stats": stats, "consumer": consumer.stats(), "entries": entries}
    return _emit(args, doc, text, default=str)


def cmd_health(args: argparse.Namespace) -> int:
    from repro.faults.scenario import arm_health, measure_health

    armed = _armed(arm_health, args.plan, seed=args.seed)
    dep = _run(armed, args.watch, lambda dep: print(dep.health_plane.render()))[0]
    result = {"plan": args.plan, **measure_health(*armed)}

    def text() -> None:
        if args.plan != "none":
            print(f"fault plan: {args.plan}")
        print(dep.health_plane.render())
        if not result["breach_events"]:
            return
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

    return _emit(args, result, text, sort_keys=True)


def cmd_incident(args: argparse.Namespace) -> int:
    from repro.obs import reconstruct

    if args.chaos:
        from repro.faults.scenario import arm_resilience

        dep = _run(arm_resilience(True, health=args.site))[0]
    else:
        dep = _attacked_home()
    if _unknown_device(dep, args.device):
        return 1
    incident = reconstruct(
        dep.sim,
        args.device,
        policy=dep.policy,
        state=dep.controller.pipeline.system_state(),
        dlq=dep.controller.dlq,
        site_events=args.site,
    )
    return _emit(args, incident.as_dict(), lambda: print(incident.render()))


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IoTSec (HotNets 2015) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, json=None, seed=None, watch=None, device=False):
        """Subcommand ``name`` running ``fn``, with the shared options it
        takes: ``json`` and ``watch`` are their help texts, ``seed`` is
        ``(default, help)``, ``device`` adds the optional device name."""
        parser = sub.add_parser(name, help=help)
        parser.set_defaults(fn=fn)
        if device:
            parser.add_argument("device", nargs="?", default="cam")
        if json is not None:
            parser.add_argument("--json", action="store_true", help=json)
        if seed is not None:
            parser.add_argument("--seed", type=int, default=seed[0], help=seed[1])
        if watch is not None:
            parser.add_argument("--watch", type=float, default=None, metavar="N", help=watch)
        return parser

    demo = command("demo", cmd_demo, "run a paper scenario, both arms")
    demo.add_argument("scenario", choices=("fig3", "fig4", "fig5", "thermal"))
    command("table1", cmd_table1, "list the Table 1 registry")
    command("model-audit", cmd_model_audit, "fuzz models + attack-graph a canned home",
            seed=(7, None))

    audit = command("audit", cmd_journal_audit, "query the security audit journal",
                    json="entry dicts instead of text")
    audit.add_argument("--since", type=float, default=None, help="simulated time floor")
    audit.add_argument("--kind", default=None, help="filter by entry kind")

    incident = command("incident", cmd_incident,
                       "reconstruct one device's incident from the flight recorder",
                       json="incident dict instead of text", device=True)
    incident.add_argument("--chaos", action="store_true",
                          help="reconstruct from the chaos scenario (partition + µmbox crash)"
                          " instead of the canned brute-force home")
    incident.add_argument("--site", action="store_true",
                          help="fold site-scoped events (SLO breaches, health transitions,"
                          " stream replays, failovers) into the device timeline")

    command("report", cmd_report, "operator report for a secured home under attack")
    command("metrics", cmd_metrics, "export the metrics registry for the report scenario",
            json="raw snapshot instead of Prometheus text",
            watch="re-render the snapshot every N simulated seconds while the"
            " scenario runs (plus one final render)")

    health = command("health", cmd_health,
                     "SLO burn rates + subsystem health rollup for a seeded run",
                     json="summary dict instead of text", seed=(7, None),
                     watch="re-render the health report every N simulated seconds")
    health.add_argument("--plan", default="none",
                        help="scenario to run: none (default, the all-green attacked home),"
                        " standard, controller or long-partition")

    command("trace", cmd_trace, "print causal traces (packet -> posture) for one device",
            json="span dicts instead of rendered text", device=True)
    command("policy", cmd_policy, "export a sample default policy as JSON")

    federation = command("federation", cmd_federation, "multi-site control plane:"
                         " coordinator-blackout drill or parallel scale run")
    federation.add_argument("--sites", type=int, default=4, help="number of federated sites")
    federation.add_argument("--scale", type=int, default=0, metavar="N",
                            help="instead of the blackout drill, shard an N-device fleet"
                            " across the sites in parallel worker processes")
    federation.add_argument("--workers", type=int, default=None,
                            help="worker processes for --scale")

    fleet = command("fleet", cmd_fleet, "federated-signature story across N sites")
    fleet.add_argument("--sites", type=int, default=6)

    campaign = command("campaign", cmd_campaign, "run adversarial multi-stage campaigns and"
                       " print per-class containment scorecards",
                       json="scorecard dicts instead of text",
                       seed=(None, "override the campaign's baked-in seed"))
    campaign.add_argument("--list", action="store_true", help="list the shipped corpus")
    campaign.add_argument("--name", default=None, help="run one named campaign")
    campaign.add_argument("--class", dest="campaign_class", default=None,
                          choices=("single-flaw", "lateral-movement", "fabric-degradation",
                                   "automation-abuse"),
                          help="run every campaign of one class")
    campaign.add_argument("--file", default=None, help="run a campaign from a JSON document")

    chaos = command("chaos", cmd_chaos, "inject faults (partition, µmbox crash) and compare arms",
                    json="plan + both arms as JSON", seed=(7, "chaos + fault-model seed"))
    chaos.add_argument("--plan", default="standard",
                       help="fault plan: 'standard', 'controller', or a JSON plan file")
    chaos.add_argument("--duration", type=float, default=30.0, help="simulated horizon")
    chaos.add_argument("--drop", type=float, default=0.0, help="background control-loss prob")
    chaos.add_argument("--jitter", type=float, default=0.0, help="max extra control delay")
    chaos.add_argument("--random", action="store_true",
                       help="draw the fault plan from the seeded chaos generator"
                       " instead of the standard partition+crash plan")
    chaos.add_argument("--no-resilience", action="store_true", help="run only the baseline arm")

    failover = command("failover", cmd_failover,
                       "controller crash: cold restart vs hot-standby takeover",
                       json="both arms as JSON", seed=(7, "scenario seed"))
    failover.add_argument("--storm", action="store_true",
                          help="compare ingest-queue arms under a 10x alert storm instead")

    dlq = command("dlq", cmd_dlq, "inspect the durable-telemetry dead-letter queue",
                  json="stats + entries as JSON")
    dlq.add_argument("--device", default=None, help="only entries for this device")
    dlq.add_argument("--reason", default=None, help="only entries with this refusal reason")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
