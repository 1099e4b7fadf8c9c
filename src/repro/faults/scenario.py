"""The canned single-site scenarios: arm, run, measure.

Every scenario is a home, a fault plan and a campaign, taken in three
steps the caller can pull apart:

- **arm** (``arm_*``) builds the home with the planes the scenario turns
  on, applies its :class:`~repro.faults.plan.FaultPlan` up front and
  starts its attacks -- a :class:`~repro.faults.campaign.Campaign` from
  :mod:`repro.faults.campaign_library` -- on a ``CampaignRunner``.  It
  returns ``(dep, runner)`` with the clock at zero.
- **run** is the caller's own ``dep.run(until=...)``, to
  ``runner.campaign.horizon`` in one call or in slices (slicing adds no
  event and journals the same bytes).
- **measure** (``measure_*``) is a function of the finished deployment
  and runner alone, and checks the run-level invariants first.

``run_*_scenario`` is the three in a row.  The scenarios: **resilience**
(bench E12, ``repro chaos``), **failover** and **storm** (bench E13,
``repro failover [--storm]``), the **health** plans (``repro health
--plan``) and the **attacked home** behind ``repro report``/``metrics``/
``trace``/``audit``/``incident``/``dlq``.  All are seeded and sim-timed:
the same seed reproduces the same packets, drops, crashes and
recoveries, which is what lets the benches gate their numbers in CI.

The paper's own homes are here once each: **Fig. 3**'s FSM, **Fig. 4**'s
password proxy, **Fig. 5**'s occupancy gate and section 2.1's
**thermal** break-in (``arm_fig3``/``fig4``/``fig5``/``thermal`` with
their ``measure_*``; ``protect`` picks the IoTSec arm), and E11's
**fleet** (:func:`run_fleet_immunity`, many sites on one simulator).
Their benches, ``tests/test_integration_paper.py`` and ``repro demo`` /
``repro fleet`` all run these.

The E9 home with its two opening attacks, and the multi-site federation
blackout, live here too; they still launch their exploits by hand.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.overload import CLASS_NAMES, IngestConfig
from repro.devices.library import (
    fire_alarm,
    smart_bulb,
    smart_camera,
    smart_plug,
    thermostat,
    window_actuator,
)
from repro.faults.campaign import Campaign, CampaignRunner
from repro.faults.campaign_library import (
    CAM_BRUTE_FORCE,
    FAILOVER_WAVES,
    FIG3_BREAK_IN,
    FIG4_CAM_TAKEOVER,
    HEALTH_PERIOD,
    OVEN_ARSON,
    THERMAL_BREAK_IN,
    checked,
    fleet_hijack,
    no_attack,
    resilience_waves,
)
from repro.faults.plan import FaultEvent, FaultPlan, inject_alerts, long_partition_plan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment
    from repro.policy.fsm import PolicyFSM

#: What ``arm_*`` returns and ``measure_*`` takes.
Armed = tuple["SecuredDeployment", CampaignRunner]

#: The resilience scenario's fault schedule and default horizon.
PARTITION_AT = 4.0
PARTITION_LEN = 3.0
CRASH_AT = 10.0
HORIZON = 30.0

#: Failover: the controller dies at :data:`CRASH_AT` too.
RESTART_AFTER = 20.0          # cold-restart delay in the no-standby arm
CHECKPOINT_PERIOD = 2.0

#: Storm schedule and rates.
STORM_HORIZON = 20.0
TELEMETRY_RATE = 50.0         # background telemetry, alerts/s over [1, 19)
STORM_RATE = 500.0            # the 10x flood, alerts/s over [5, 13)
ENFORCING_RATE = 20.0         # real alerts for an enforcing device
STORM_START = 5.0
STORM_LEN = 8.0
INGEST_CAPACITY = 128
INGEST_SERVICE_TIME = 0.004   # 250 alerts/s service ceiling

LONG_PARTITION_START = 60.0
LONG_PARTITION_HOURS = 0.5

#: The federation blackout schedule: first sync and one cross-site
#: signature propagate cleanly, then the coordinator WAN goes dark for a
#: minute while every site is attacked on cached policy.
FEDERATION_BLACKOUT_START = 30.0
FEDERATION_BLACKOUT_END = 90.0
FEDERATION_HORIZON = 120.0
FEDERATION_SYNC_PERIOD = 5.0

#: Fig. 4: the administrator's password, the only one the proxy admits.
FIG4_NEW_PASSWORD = "S3cure!gateway"

#: E11: the attacker reaches the next site of the fleet this much later.
FLEET_SWEEP_GAP = 30.0


def standard_home(**planes: Any) -> "SecuredDeployment":
    """The finalized cam + plug home every canned scenario runs on.

    ``planes`` are :class:`SecuredDeployment` keywords (which opt-in
    planes this run turns on).  The plug powers a hazardous load (the
    oven); the one attacker is ``dep.attackers["attacker"]``.
    """
    from repro.core.deployment import SecuredDeployment

    dep = SecuredDeployment.build(**planes)
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
    dep.add_attacker()
    dep.finalize()
    return dep


def e9_home(
    n_devices: int,
    telemetry_period: float = 20.0,
    signatures: Sequence[dict] = (),
    **planes: Any,
) -> "SecuredDeployment":
    """The E9 home: ``n_devices`` reporting devices and one attacker.

    Device ``i`` is ``dev{i}``, built camera, plug, thermostat, bulb in
    turn and telemetering to the hub; each is pinned to the posture its
    flaw class calls for (password proxy for exposed credentials, a
    stateful firewall for a backdoor or exposed access, a monitor
    otherwise).  ``signatures`` (wire dicts) seed a local repository
    before the postures go in, as a first federation sync would.
    ``planes`` are :class:`SecuredDeployment` keywords; with
    ``with_iotsec=False`` nothing is pinned.  Bench E9, bench E15's site
    workers and the equivalence fixtures all run this home.
    """
    from repro.core.deployment import SecuredDeployment
    from repro.core.orchestrator import build_recommended_posture

    factory_cycle = (smart_camera, smart_plug, thermostat, smart_bulb)
    dep = SecuredDeployment.build(**planes)
    for i in range(n_devices):
        device = dep.add_device(
            factory_cycle[i % len(factory_cycle)],
            f"dev{i}",
            report_to="hub",
            telemetry_period=telemetry_period,
        )
        device.start_telemetry()
    dep.add_attacker()
    dep.finalize()
    if not dep.with_iotsec:
        return dep
    dep.manager.capacity = max(dep.manager.capacity, n_devices + 8)
    if signatures:
        from repro.learning.repository import CrowdRepository
        from repro.learning.signatures import AttackSignature

        cache = CrowdRepository(dep.sim, free_rider_delay=0.0, base_delay=0.0)
        for wire in signatures:
            cache.publish(AttackSignature.from_dict(wire), reporter="coordinator")
        dep.attach_repository(cache)
    trusted = (dep.HUB, dep.CONTROLLER)
    for name, device in dep.devices.items():
        flaws = device.firmware.flaw_classes()
        if "exposed-credentials" in flaws:
            posture = build_recommended_posture("password_proxy", name)
        elif flaws & {"backdoor", "exposed-access"}:
            posture = build_recommended_posture(
                "stateful_firewall", name, trusted_sources=trusted
            )
        else:
            posture = build_recommended_posture("monitor", name, sku=device.sku)
        dep.secure(name, posture)
    return dep


def launch_e9_attacks(dep: "SecuredDeployment") -> list[Any]:
    """E9's two opening attacks: hijack the first camera's default
    credentials, fire the first plug's backdoor."""
    from repro.attacks.exploits import EXPLOITS

    attacker = dep.attackers["attacker"]
    return [
        EXPLOITS["default_credential_hijack"].launch(attacker, "dev0", dep.sim),
        EXPLOITS["backdoor_command"].launch(
            attacker, "dev1", dep.sim, backdoor_port=49153, command="on"
        ),
    ]


def _arm(
    dep: "SecuredDeployment",
    campaign: Campaign,
    seed: int | None = None,
    plan: FaultPlan | None = None,
    pin_plug: bool = False,
) -> Armed:
    """What every scenario does to its freshly built home: faults up
    front, the plug's pin, the baseline postures, the campaign armed."""
    from repro.policy.posture import block_commands

    if plan is not None:
        plan.apply(dep)
    if pin_plug:
        dep.secure("plug", block_commands("on"))  # enforcing: fail-closed, class 0
    dep.enforce_baseline()  # cam: unpinned monitor posture, policy-driven
    return dep, CampaignRunner(campaign, dep, seed=seed).start()


def _finish(armed: Armed, measure: Callable[..., dict[str, Any]]) -> dict[str, Any]:
    dep, runner = armed
    dep.run(until=runner.campaign.horizon)
    return measure(dep, runner)


def _rules_installed(dep: "SecuredDeployment") -> int:
    """Flow rules every two-phase epoch of the run installed, summed: what
    the run's flow changes cost the fabric.  Seeded and exact, so a return
    to epochs the size of the table fails the regression gate by equality."""
    return sum(report.rules_installed for report in dep.orchestrator.updater.reports)


def _attacker_logins(dep: "SecuredDeployment") -> int:
    return sum(
        1 for __, src, __, ok in dep.devices["cam"].login_log if ok and src == "attacker"
    )


# ----------------------------------------------------------------------
# Resilience: partition + µmbox crash under attack (E12)
# ----------------------------------------------------------------------
def standard_fault_plan() -> FaultPlan:
    """Partition the whole control channel, then crash the plug's µmbox."""
    return FaultPlan(
        [
            FaultEvent(PARTITION_AT, "partition", "*", PARTITION_LEN),
            FaultEvent(CRASH_AT, "mbox-crash", "plug"),
        ]
    )


def arm_resilience(
    resilient: bool,
    seed: int = 7,
    horizon: float = HORIZON,
    drop_prob: float = 0.0,
    jitter: float = 0.0,
    plan: FaultPlan | None = None,
    health: bool = False,
) -> Armed:
    """Arm one arm of the resilience scenario: partition + µmbox crash
    under attack (bench E12's docstring tells the story).

    The **resilient** arm has at-least-once control delivery, fail-closed
    degradation and the µmbox health loop.  The **baseline** arm is the
    paper's implicit adversary: a lost alert is lost forever and a dead
    µmbox silently reverts its device to the vulnerable default.

    ``drop_prob``/``jitter`` add seeded background loss and delay on top
    of the plan's partitions (the chaos CLI exposes them; the bench keeps
    them at zero so the numbers isolate the two injected faults).
    ``horizon`` is how long the attack waves last.  ``health`` attaches
    the SLO/health plane (eval period :data:`HEALTH_PERIOD`), whose
    breach summary the measurement then carries.
    """
    from repro.sdn.channel import FaultModel

    dep = standard_home(
        consistent_updates=True,
        reliable_control=resilient,
        health_check_period=HEALTH_PERIOD if resilient else None,
        health=health,
        health_period=HEALTH_PERIOD,
    )
    dep.channel.inject_faults(FaultModel(seed=seed, drop_prob=drop_prob, jitter=jitter))
    armed = _arm(
        dep, resilience_waves(horizon), seed, plan or standard_fault_plan(), pin_plug=True
    )
    if not resilient:
        # The no-resilience world has no degradation policy: a dead µmbox
        # simply stops standing between the attacker and the device.
        for mbox in dep.cluster.mboxes.values():
            mbox.fail_mode = "open"
    return armed


def measure_resilience(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    horizon = runner.campaign.horizon
    plug = checked(dep).devices["plug"]
    cam_logins_ok = _attacker_logins(dep)
    plug_cmds_ok = sum(
        1 for r in plug.command_log if r.accepted and r.src == "attacker"
    )

    # Time from the camera's first attack packet to its enforcement
    # posture landing (the detect -> escalate -> re-enforce chain).  The
    # campaign scorecard's ``exposure_s["cam"]``, unrounded for the mean.
    cam_enforced_at = dep.orchestrator.first_enforced_at("cam")
    cam_exposure = (
        horizon if cam_enforced_at is None else cam_enforced_at
    ) - runner.first_attacks().get("cam", horizon)

    # The plug is exposed only while its traffic flows *uninspected*:
    # fail-open downtime counts, fail-closed downtime blocks instead.
    plug_exposure = 0.0
    plug_downtime = 0.0
    reenforce_times = [] if cam_enforced_at is None else [cam_exposure]
    for outage in dep.manager.outages:
        end = outage.restored_at if outage.restored_at is not None else horizon
        plug_downtime += end - outage.down_at
        if outage.fail_mode == "open":
            plug_exposure += end - outage.down_at
        if outage.restored_at is not None:
            reenforce_times.append(outage.restored_at - outage.down_at)

    channel = dep.channel
    result: dict[str, Any] = {
        "arm": "resilient" if dep.reliable_control else "baseline",
        "seed": runner.seed,
        "horizon_s": horizon,
        "attack_attempts": sum(stage.params["count"] for stage in runner.campaign),
        "attack_successes": cam_logins_ok + plug_cmds_ok,
        "cam_login_successes": cam_logins_ok,
        "plug_command_successes": plug_cmds_ok,
        "exposure_s": round(cam_exposure + plug_exposure, 6),
        "cam_reenforce_s": (
            round(cam_exposure, 6) if cam_enforced_at is not None else None
        ),
        "plug_downtime_s": round(plug_downtime, 6),
        "mean_time_to_reenforce_s": (
            round(sum(reenforce_times) / len(reenforce_times), 6)
            if reenforce_times
            else None
        ),
        "plug_compromised": "attacker" in plug.compromised_by,
        "ctrl_drops": channel.dropped,
        "ctrl_retries": channel.retries,
        "ctrl_duplicates": channel.duplicates,
        "ctrl_unacked": channel.unacked(),
        "mbox_crashes": dep.manager.crashes,
        "mbox_restarts": dep.manager.restarts,
        "down_drops": dep.cluster.down_drops,
        "fail_open_passes": dep.cluster.fail_open_passes,
        "rules_installed": _rules_installed(dep),
        "events": dep.sim.events_processed,
    }
    if dep.health_plane is not None:
        result["health"] = health_summary(dep)
    return result


def run_resilience_scenario(resilient: bool, **options: Any) -> dict[str, Any]:
    """Arm (``options`` are :func:`arm_resilience`'s), run to the horizon,
    measure."""
    return _finish(arm_resilience(resilient, **options), measure_resilience)


# ----------------------------------------------------------------------
# Controller survivability: crash/failover and the alert storm (E13)
# ----------------------------------------------------------------------
def arm_failover(standby: bool, seed: int = 7) -> Armed:
    """Arm one arm of the crash-vs-failover experiment (bench E13a).

    The controller dies half a second before the camera's brute-force
    wave.  The **crash** arm checkpoints locally and is cold-restarted
    :data:`RESTART_AFTER` seconds later, so its *blind window* -- attack
    seconds before the first post-crash enforcing posture -- is
    essentially the outage; the **standby** arm's hot standby takes over
    under the primary's endpoint name, and the alerts the cluster's lane
    still holds deliver to it (in the crash arm, to the restarted one).
    """
    dep = standard_home(
        consistent_updates=True,
        reliable_control=True,
        checkpointing=True,
        checkpoint_period=CHECKPOINT_PERIOD,
        standby=standby,
        ha_seed=seed,
    )
    # The crash is a declared fault -- journaled, reproducible, reviewable.
    crash = FaultPlan([FaultEvent(CRASH_AT, "controller-crash", "controller")])
    armed = _arm(dep, FAILOVER_WAVES, seed, crash, pin_plug=True)  # the pin survives failover
    if not standby:
        dep.sim.schedule_at(CRASH_AT + RESTART_AFTER, dep.restart_controller)
    return armed


def measure_failover(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    checked(dep)
    horizon = runner.campaign.horizon
    # Blind window: attack time from the crash until the first *enforcing*
    # posture lands anywhere post-crash (the camera's firewall).
    enforced_at = dep.orchestrator.first_enforced_at("cam", after=CRASH_AT)
    blind = (enforced_at - CRASH_AT) if enforced_at is not None else horizon - CRASH_AT

    journal = dep.sim.journal
    failover_entries = journal.entries(kind="failover-complete")
    restart_entries = journal.entries(kind="controller-restart")
    return {
        "arm": "standby" if dep.standby else "crash",
        "seed": runner.seed,
        "horizon_s": horizon,
        # The post-crash wave; the two background logins are not attempts.
        "attack_attempts": runner.campaign.stages[-1].params["count"],
        "cam_login_successes": _attacker_logins(dep),
        "blind_window_s": round(blind, 6),
        "cam_enforced_at": round(enforced_at, 6) if enforced_at is not None else None,
        "checkpoints": dep.checkpoint_store.captured if dep.checkpoint_store else 0,
        "failovers": len(failover_entries),
        "restarts": len(restart_entries),
        "replayed": (
            failover_entries[0].fields["replayed_alerts"]
            + failover_entries[0].fields["replayed_contexts"]
            if failover_entries
            else (restart_entries[0].fields["replayed"] if restart_entries else 0)
        ),
        "reconciled": (
            failover_entries[0].fields["reconciled"]
            if failover_entries
            else (restart_entries[0].fields["reconciled"] if restart_entries else 0)
        ),
        "ctrl_retries": dep.channel.retries,
        "ctrl_duplicates": dep.channel.duplicates,
        "ctrl_unacked": dep.channel.unacked(),
        "rules_installed": _rules_installed(dep),
        "events": dep.sim.events_processed,
    }


def run_failover_scenario(standby: bool, seed: int = 7) -> dict[str, Any]:
    return _finish(arm_failover(standby, seed), measure_failover)


def _note_latency(latencies: dict[int, list[float]], cls: int, latency: float) -> None:
    latencies[cls].append(latency)


def arm_storm(shedding: bool, seed: int = 7) -> Armed:
    """Arm one arm of the 10x-alert-storm experiment: the ingest queue
    class-prioritized with watermark shedding (**shed**), or plain
    drop-tail FIFO of the same capacity and service rate (**fifo**).
    Nobody attacks; the flood and the genuine alerts enter at the
    control channel."""
    config = IngestConfig(
        capacity=INGEST_CAPACITY,
        service_time=INGEST_SERVICE_TIME,
        prioritized=shedding,
        shed=shedding,
    )
    dep = standard_home(consistent_updates=True, reliable_control=True, ingest=config)
    # The 10x flood rides the declarative fault plan (journaled).
    flood = FaultPlan(
        [FaultEvent(STORM_START, "alert-storm", "cam", STORM_LEN, intensity=STORM_RATE)]
    )
    armed = _arm(dep, no_attack(STORM_HORIZON), seed, flood, pin_plug=True)
    dep.controller.ingest.on_processed = partial(_note_latency, {0: [], 1: [], 2: []})

    def feed(kind: str, device: str, rate: float, start: float, end: float) -> None:
        inject_alerts(
            dep, dep.CLUSTER, rate, start, end,
            lambda n: {"device": device, "kind": kind, "detail": {"feed": kind}},
        )

    # Routine background telemetry (class 2) and genuine alerts for the
    # enforcing-posture plug (class 0) that must survive the storm.
    feed("telemetry", "cam", TELEMETRY_RATE, 1.0, STORM_HORIZON - 1.0)
    feed("anomalous-command", "plug", ENFORCING_RATE, STORM_START, STORM_START + STORM_LEN)
    return armed


def measure_storm(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    queue = checked(dep).controller.ingest
    latencies = queue.on_processed.args[0]
    arrived = [a + d for a, d in zip(queue.accepted, queue.dropped)]
    fractions = {
        CLASS_NAMES[cls]: (
            round(queue.processed[cls] / arrived[cls], 6) if arrived[cls] else None
        )
        for cls in (0, 1, 2)
    }

    def p99(samples: list[float]) -> float | None:
        if not samples:
            return None
        ordered = sorted(samples)
        return round(ordered[int(0.99 * (len(ordered) - 1))], 6)

    return {
        "arm": "shed" if queue.config.shed else "fifo",
        "seed": runner.seed,
        "horizon_s": runner.campaign.horizon,
        "storm_rate": STORM_RATE,
        "service_rate": round(1.0 / INGEST_SERVICE_TIME, 6),
        "queue": queue.stats(),
        "enforcing_processed_frac": fractions["enforcing"],
        "processed_frac": fractions,
        "p99_latency_s": {CLASS_NAMES[cls]: p99(latencies[cls]) for cls in (0, 1, 2)},
        "shed_transitions": queue.shed_transitions,
        "rules_installed": _rules_installed(dep),
        "events": dep.sim.events_processed,
    }


def run_storm_scenario(shedding: bool, seed: int = 7) -> dict[str, Any]:
    return _finish(arm_storm(shedding, seed), measure_storm)


# ----------------------------------------------------------------------
# The attacked home and the health-plane scenarios
# ----------------------------------------------------------------------
def arm_attacked_home(**planes: Any) -> Armed:
    """The canned scenario behind ``repro report``/``metrics``/``trace``/
    ``audit``/``incident``/``dlq``: the two-device home on baseline
    postures, its camera brute-forced from t=0.  ``planes`` turn on
    opt-in planes of the deployment."""
    return _arm(standard_home(**planes), CAM_BRUTE_FORCE)


def _arm_survivable(
    campaign: Campaign, plan: FaultPlan | None, seed: int = 7, **planes: Any
) -> Armed:
    """The same home with the full survivability stack and the SLO/health
    plane on."""
    dep = standard_home(
        consistent_updates=True,
        reliable_control=True,
        health_check_period=HEALTH_PERIOD,
        checkpointing=True,
        ha_seed=seed,
        health=True,
        health_period=HEALTH_PERIOD,
        **planes,
    )
    return _arm(dep, campaign, seed, plan)


#: ``repro health --plan``: name -> how to arm it, given a seed.  The
#: fault plans must drive deterministic, journaled breach -> recovery
#: chains; the regression gate asserts exactly that.
HEALTH_SCENARIOS: dict[str, Callable[..., Armed]] = {
    # the attacked home, which must end all-green
    "none": partial(_arm_survivable, CAM_BRUTE_FORCE, None, durable_telemetry=True),
    # the resilient arm of the resilience scenario
    "standard": partial(arm_resilience, True, health=True),
    # primary controller crash with a hot standby (failover blind window)
    "controller": partial(
        _arm_survivable,
        no_attack(60.0),
        FaultPlan([FaultEvent(CRASH_AT, "controller-crash", "*")]),
        standby=True,
    ),
    # a control blackout over the durable telemetry plane
    "long-partition": partial(
        _arm_survivable,
        no_attack(LONG_PARTITION_START + LONG_PARTITION_HOURS * 3600.0 + 120.0),
        long_partition_plan(start=LONG_PARTITION_START, hours=LONG_PARTITION_HOURS),
        durable_telemetry=True,
    ),
}


def arm_health(plan: str = "none", seed: int = 7) -> Armed:
    if plan not in HEALTH_SCENARIOS:
        raise ValueError(f"unknown health plan {plan!r} (choose from {tuple(HEALTH_SCENARIOS)})")
    return HEALTH_SCENARIOS[plan](seed=seed)


def health_summary(dep: Any) -> dict[str, Any]:
    """The health plane's verdict for a finished run, JSON-plain.

    Joins the live snapshot with the journaled ``slo-breach`` /
    ``slo-recover`` chains; ``matched_recoveries`` counts breaches whose
    recovery carries the *same trace id* (the causal pair the regression
    gate asserts on).
    """
    plane = dep.health_plane
    snap = plane.snapshot()
    if not snap.get("enabled"):
        return snap
    journal = dep.sim.journal
    breaches = [
        {
            "at": entry.at,
            "slo": entry.fields.get("slo"),
            "subsystem": entry.fields.get("subsystem"),
            "severity": entry.fields.get("severity"),
            "trace": entry.trace_id,
        }
        for entry in journal.entries(kind="slo-breach")
    ]
    recoveries = [
        {
            "at": entry.at,
            "slo": entry.fields.get("slo"),
            "trace": entry.trace_id,
            "breach_s": entry.fields.get("breach_s"),
        }
        for entry in journal.entries(kind="slo-recover")
    ]
    recovered_traces = {r["trace"] for r in recoveries if r["trace"] is not None}
    matched = sum(1 for b in breaches if b["trace"] in recovered_traces)
    return {
        "enabled": True,
        "rollup": snap["rollup"],
        "subsystems": {
            name: info["state"] for name, info in snap["subsystems"].items()
        },
        "slo_breaches": snap["slo_breaches"],
        "slo_recoveries": snap["slo_recoveries"],
        "matched_recoveries": matched,
        "breach_events": breaches,
        "recovery_events": recoveries,
        "health_transitions": snap["transitions"],
    }


def measure_health(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    return {**health_summary(checked(dep)), "events": dep.sim.events_processed}


def run_health_scenario(plan: str = "none", seed: int = 7) -> dict[str, Any]:
    return {"plan": plan, **_finish(arm_health(plan, seed), measure_health)}


# ----------------------------------------------------------------------
# The paper's own homes: Figs. 3-5 and section 2.1's thermal break-in
# ----------------------------------------------------------------------
def _home(
    *devices: tuple[Callable[..., Any], str, dict[str, Any]], **planes: Any
) -> "SecuredDeployment":
    """A finalized bespoke home: ``(factory, name, options)`` per device,
    and the one attacker.  ``planes`` are :class:`SecuredDeployment`
    keywords."""
    from repro.core.deployment import SecuredDeployment

    dep = SecuredDeployment.build(**planes)
    for factory, name, options in devices:
        dep.add_device(factory, name, **options)
    dep.add_attacker()
    dep.finalize()
    return dep


def _crowd_knows_backdoor(dep: "SecuredDeployment", device: str) -> None:
    """Another site already reported ``device``'s backdoor: its signature
    is in the home's repository and every device is on its baseline."""
    from repro.learning.repository import CrowdRepository
    from repro.learning.signatures import backdoor_signature

    node = dep.devices[device]
    repo = CrowdRepository(dep.sim)
    repo.publish(backdoor_signature(node.sku, node.firmware.backdoor_port), reporter="other-site")
    dep.attach_repository(repo)
    dep.enforce_baseline()


def _was_opened(window: Any) -> bool:
    """Breached: the actuator's own command log shows it opening (an
    open-then-close still counts)."""
    return any(r.state_after == "open" for r in window.command_log)


def fig3_policy() -> "PolicyFSM":
    """Fig. 3's FSM: a suspicious FireAlarm gives the window "Block 'open'
    + FW"; a suspicious window gets "Robot Check + FW", a source filter
    admitting only the hub and the controller."""
    from repro.policy.builder import PolicyBuilder
    from repro.policy.context import SUSPICIOUS
    from repro.policy.posture import MboxSpec, Posture, block_commands

    robot_check = Posture.make(
        "robot-check-fw",
        MboxSpec.make("source_filter", allowed_sources=["hub", "controller"]),
    )
    return (
        PolicyBuilder()
        .device("fire_alarm")
        .device("window")
        .env("smoke", ("clear", "detected"))
        .when("ctx:fire_alarm", SUSPICIOUS)
        .give("window", block_commands("open", name="block-open-fw"), priority=200)
        .when("ctx:window", SUSPICIOUS)
        .give("window", robot_check, priority=250)
        .build()
    )


def arm_fig3(protect: bool) -> Armed:
    """Fig. 3: a FireAlarm and a window actuator, and a hub recipe that
    ventilates when the alarm sounds.  :data:`FIG3_BREAK_IN` takes both
    attack transitions of the figure's FSM.  ``protect`` arms the FSM with
    the crowd's signature for the alarm's backdoor."""
    from repro.policy.ifttt import Recipe

    dep = _home(
        (fire_alarm, "fire_alarm", {}), (window_actuator, "window", {}), policy=fig3_policy()
    )
    dep.hub.add_recipe(Recipe("ventilate", "dev:fire_alarm", "alarm", "window", "open"))
    dep.hub.watch_devices(lambda name: dep.devices[name].state if name in dep.devices else None)
    if protect:
        _crowd_knows_backdoor(dep, "fire_alarm")
    return dep, CampaignRunner(FIG3_BREAK_IN, dep).start()


def measure_fig3(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    window = checked(dep).devices["window"]
    posture = dep.orchestrator.posture_of("window")
    return {
        "breached": _was_opened(window),
        "window_state": window.state,
        "alarm_state": dep.devices["fire_alarm"].state,
        "fa_context": dep.controller.context_of("fire_alarm"),
        "win_context": dep.controller.context_of("window"),
        "window_posture": posture.name if posture is not None else "-",
        "stages": {name: r.succeeded for name, r in runner.exploit_results.items()},
    }


def arm_fig4(protect: bool) -> Armed:
    """Fig. 4: a camera with a hardcoded ``admin/admin`` its owner cannot
    change, under :data:`FIG4_CAM_TAKEOVER`.  ``protect`` puts a password
    proxy in front of it that accepts only :data:`FIG4_NEW_PASSWORD`."""
    from repro.core.orchestrator import build_recommended_posture

    dep = _home((smart_camera, "cam", {}))
    if protect:
        proxy = build_recommended_posture("password_proxy", "cam", new_password=FIG4_NEW_PASSWORD)
        dep.secure("cam", proxy)
    return dep, CampaignRunner(FIG4_CAM_TAKEOVER, dep).start()


def measure_fig4(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    cam = checked(dep).devices["cam"]
    attacker = runner.attacker.name
    return {
        "default_cred_hijack": runner.exploit_results["hijack"].succeeded,
        "brute_force": runner.exploit_results["brute_force"].succeeded,
        "images_exfiltrated": len(runner.attacker.loot_from("cam")),
        "device_saw_attacker_login": any(src == attacker for __, src, __, __ in cam.login_log),
        "alerts": len(dep.alerts("cam")),
    }


def arm_fig5(protect: bool, occupied: bool = False) -> Armed:
    """Fig. 5: a camera that sees whether anyone is home, a Wemo plug
    powering an oven, and a fire alarm the oven's smoke can trip.
    :data:`OVEN_ARSON` switches the oven on through the Wemo's backdoor.
    ``protect`` lets "on" reach the Wemo only while the room is occupied."""
    from repro.policy.posture import MboxSpec, Posture

    dep = _home(
        (smart_camera, "cam", {}),
        (smart_plug, "wemo", {"load": {"hazard": 1.0, "heat_watts": 2000.0}}),
        (fire_alarm, "alarm", {"with_backdoor": False}),
    )
    dep.env.discrete("occupancy").set("present" if occupied else "absent")
    if protect:
        gate = MboxSpec.make("context_gate", commands=["on"], require={"env:occupancy": "present"})
        dep.secure("wemo", Posture.make("occupancy-gate", gate))
    return dep, CampaignRunner(OVEN_ARSON, dep).start()


def measure_fig5(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    oven = checked(dep).devices["wemo"].state
    return {
        "oven": oven,
        "oven_on": oven == "on",
        "attack_ok": runner.exploit_results["oven_plug_backdoor_on"].succeeded,
        "smoke": dep.env.level("smoke"),
        "alarm": dep.devices["alarm"].state,
        "blocked_alerts": sum(1 for a in dep.alerts("wemo") if a.kind == "context-gate-blocked"),
    }


def arm_thermal(protect: bool) -> Armed:
    """Section 2.1: in a heat wave, an AC plug keeps the room cool and a
    hub recipe opens the window when it gets hot.  :data:`THERMAL_BREAK_IN`
    turns the AC off through its backdoor and never touches the window.
    ``protect`` adds the crowd's signature for that backdoor."""
    from repro.environment.physics import ThermalProcess
    from repro.policy.ifttt import Recipe

    dep = _home(
        (smart_plug, "ac_plug", {"load": {"cool_watts": 700.0}}),
        (window_actuator, "window", {}),
    )
    processes = dep.env.processes
    for i, process in enumerate(processes):
        if isinstance(process, ThermalProcess):
            processes[i] = ThermalProcess(outside=35.0)
    dep.env.continuous("temperature").set(21.0)
    dep.devices["ac_plug"].apply_command("on", src="hub", via="local")
    dep.hub.add_recipe(Recipe("cool-down", "env:temperature", "high", "window", "open"))
    if protect:
        _crowd_knows_backdoor(dep, "ac_plug")
    return dep, CampaignRunner(THERMAL_BREAK_IN, dep).start()


def measure_thermal(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    window = checked(dep).devices["window"]
    return {
        "ac": dep.devices["ac_plug"].state,
        "temp": dep.env.level("temperature"),
        "window": window.state,
        "breached": _was_opened(window),
        "backdoor_ok": runner.exploit_results["plug_backdoor_off"].succeeded,
    }


# ----------------------------------------------------------------------
# Fleet immunity: one victim site's signature protects the rest (E11)
# ----------------------------------------------------------------------
def run_fleet_immunity(sites: int, share: bool) -> dict[str, Any]:
    """``sites`` one-camera homes on one simulator, each behind a forensic
    monitor posture; site ``i``'s camera is hijacked at ``1 + i *``
    :data:`FLEET_SWEEP_GAP` s (bench E11 tells the story).  Ten seconds
    after its attack, site 0's operator mines a signature from the µmbox's
    capture and publishes it.  With ``share`` every site subscribes to
    that repository; without, each site is on its own.

    Returns the per-site outcomes, the sites lost, the repository's
    version and when site 0 published (``None`` if it did not)."""
    from repro.learning.repository import CrowdRepository
    from repro.learning.traceminer import LabelledTrace, mine_and_publish
    from repro.mboxes.elements import PacketLogger
    from repro.netsim.simulator import Simulator
    from repro.policy.posture import MboxSpec, Posture

    sku = "dlink:DCS-930L:1.0"
    posture = Posture.make(
        "forensic-monitor",
        MboxSpec.make("telemetry_tap"),
        MboxSpec.make("packet_logger", capture=True),
        MboxSpec.make("login_monitor"),
        MboxSpec.make("signature_ids", sku=sku, drop_on_match=True),
    )
    horizon = sites * FLEET_SWEEP_GAP + 60.0
    sim = Simulator()
    repo = CrowdRepository(sim, free_rider_delay=5.0, base_delay=1.0)
    homes: list[SecuredDeployment] = []
    for __ in range(sites):
        site = _home((smart_camera, "cam", {}), sim=sim)
        if share:
            site.attach_repository(repo)
        site.secure("cam", posture)
        homes.append(site)
    runners = [
        CampaignRunner(fleet_hijack(1.0 + i * FLEET_SWEEP_GAP, horizon), site).start()
        for i, site in enumerate(homes)
    ]
    published_at: list[float] = []

    def site0_responds() -> None:
        """Site 0's operator mines the capture and publishes."""
        mbox = homes[0].cluster.mboxes["cam"]
        logger = next(e for e in mbox.elements if isinstance(e, PacketLogger))
        attack = [
            p for p in logger.captured
            if p.src == "attacker" and p.payload.get("action") == "login"
        ]
        if not attack:
            return
        benign = [p for p in logger.captured if p.src != "attacker"]
        mine_and_publish(
            repo,
            LabelledTrace.make(attack=attack, benign=benign),
            sku=sku,
            reporter="site-0-operator",
            flaw_class="exposed-credentials",
            recommended_posture="password_proxy",
        )
        published_at.append(sim.now)

    if share:
        sim.schedule(11.0, site0_responds)
    sim.run(until=horizon)

    outcomes = [
        {
            "site": i,
            "attacked_at": runner.campaign.stages[0].at,
            "compromised": bool(runner.attacker.loot_from("cam")),
            "signature_hits": sum(
                1 for a in site.alerts("cam") if a.kind == "signature-match"
            ),
        }
        for i, (site, runner) in enumerate(zip(homes, runners))
    ]
    return {
        "arm": "federated" if share else "isolated",
        "outcomes": outcomes,
        "lost": sum(1 for o in outcomes if o["compromised"]),
        "published": repo.version,
        "published_at": published_at[0] if published_at else None,
    }


def run_federation_blackout_scenario(
    sites: int = 4,
    seed: int = 7,
    horizon: float = FEDERATION_HORIZON,
) -> dict[str, Any]:
    """The seeded coordinator-blackout scenario (federation tentpole).

    Timeline (all simulated seconds, deterministic):

    - ``t=5``   site0's camera is hit before any signature exists -- the
      one expected compromise, the fleet's patient zero;
    - ``t=10``  site0 mines the credential signature and reports it; the
      coordinator versions it and pushes it fleet-wide (one WAN hop);
    - ``t=30``  the whole coordinator WAN partitions for 60 s; every
      site journals ``site-autonomy-enter`` and keeps enforcing on its
      cached signature set;
    - mid-blackout every *other* site's camera is attacked with the same
      exploit -- each must be blocked by the cached signature
      (``enforcement_gaps`` counts any that is not);
    - ``t=50``  site1 mines a backdoor signature offline: enforced
      locally at once, the report waits on site1's lane for the heal;
    - ``t=90``  heal: the lane re-sends the report, the coordinator
      versions it, every site replays in order and journals
      ``site-autonomy-exit``;
    - ``t=100`` a compromised site ships a poisoned report (a posture no
      recipe can build); the coordinator quarantines it to the
      federation DLQ and it never consumes a version.
    """
    from repro.attacks.exploits import EXPLOITS
    from repro.federation import Federation
    from repro.learning.signatures import (
        backdoor_signature,
        default_credential_signature,
    )
    from repro.policy.posture import MboxSpec, Posture

    if sites < 2:
        raise ValueError(f"need at least 2 sites (got {sites})")

    fed = Federation(sync_period=FEDERATION_SYNC_PERIOD)
    attackers: dict[str, Any] = {}

    def populate(dep: Any) -> None:
        dep.add_device(smart_camera, "cam")

    for i in range(sites):
        site = fed.add_site(f"site{i}", populate=populate)
        attackers[site.name] = site.dep.add_attacker()
    sku = fed.sites["site0"].dep.devices["cam"].sku
    posture = Posture.make(
        "forensic-monitor",
        MboxSpec.make("packet_logger", capture=True),
        MboxSpec.make("signature_ids", sku=sku),
    )
    for site in fed.sites.values():
        site.dep.secure("cam", posture)
    fed.attach_health(period=1.0)
    fed.start()
    fed.blackout(FEDERATION_BLACKOUT_START, FEDERATION_BLACKOUT_END)

    results: dict[str, Any] = {}
    gaps: list[str] = []

    def attack(name: str) -> None:
        results[name] = EXPLOITS["default_credential_hijack"].launch(
            attackers[name], "cam", fed.sim, resource="image"
        )

    def blackout_attack(name: str) -> None:
        site = fed.sites[name]
        if not site.enforcing:
            gaps.append(f"{name}: not enforcing mid-blackout")
        attack(name)

    # Patient zero, then the mined signature fans out pre-blackout.
    fed.sim.schedule(5.0, attack, "site0")
    fed.sim.schedule(
        10.0,
        lambda: fed.sites["site0"].mined(default_credential_signature(sku).to_dict()),
    )
    # Mid-blackout: every other site attacked on cached policy only.
    for i in range(1, sites):
        fed.sim.schedule(45.0 + i, blackout_attack, f"site{i}")
    # Offline discovery queues for the heal.
    fed.sim.schedule(
        50.0, lambda: fed.sites["site1"].mined(backdoor_signature(sku, 49153).to_dict())
    )

    # Post-heal poisoning attempt: a recipe no orchestrator can build.
    def poison() -> None:
        wire = default_credential_signature(sku).to_dict()
        wire["recommended_posture"] = "open_all_ports"
        wire["flaw_class"] = "poisoned-bait"
        fed.wan.send(
            fed.sites["site2" if sites > 2 else "site1"].endpoint,
            fed.coordinator.NAME,
            "sig-report",
            {"signature": wire},
        )

    fed.sim.schedule(100.0, poison)
    fed.run(until=horizon)

    for i in range(1, sites):
        name = f"site{i}"
        if attackers[name].loot_from("cam"):
            gaps.append(f"{name}: blackout attack compromised the camera")

    coordinator = fed.coordinator
    return {
        "sites": sites,
        "events": fed.sim.events_processed,
        "attacks_launched": len(results),
        "attacks_blocked": sum(1 for r in results.values() if not r.succeeded),
        "patient_zero_compromised": bool(attackers["site0"].loot_from("cam")),
        "enforcement_gaps": len(gaps),
        "gap_details": gaps,
        "signatures_propagated": coordinator.repository.version,
        "dlq_quarantined": coordinator.dlq.quarantined,
        "converged": coordinator.converged(),
        "out_of_order": sum(s.out_of_order for s in fed.sites.values()),
        "pending_after": fed.wan.unacked(),
        "autonomy_enters": len(fed.sim.journal.entries(kind="site-autonomy-enter")),
        "autonomy_exits": len(fed.sim.journal.entries(kind="site-autonomy-exit")),
        "offline_s": round(sum(s.offline_s for s in fed.sites.values()), 3),
        "propagation_lag_v1": fed.propagation_lag(1),
    }
