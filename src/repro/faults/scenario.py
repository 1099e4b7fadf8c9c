"""The standard resilience scenario: partition + µmbox crash under attack.

One protected home, two devices, two faults, two arms:

- ``cam`` runs an (unpinned) monitor posture; an attacker hammers its
  default-credential login.  The µmbox's login monitor raises alerts that
  must cross the control channel for the policy loop to escalate the
  camera to a firewall posture -- and the attack begins *inside* a
  control-channel partition, so the first alerts are exactly the ones the
  wire loses.
- ``plug`` is pinned behind a command filter (``block_commands("on")``);
  its µmbox is crashed mid-run while the attacker keeps firing backdoor
  ``on`` commands.

The **resilient** arm uses at-least-once control delivery (alerts and
flow-mods retry across the partition), fail-closed degradation, and the
µmbox health loop (crash -> sweep -> reboot -> chain re-pin).  The
**baseline** arm is the paper's implicit adversary: exactly-once-if-lucky
delivery, no health model, and fail-open degradation -- a lost alert is
lost forever and a dead µmbox silently reverts its device to the
vulnerable default.

Everything is seeded and sim-timed: the same seed reproduces the same
packets, drops, crashes and recoveries, which is what lets bench E12 gate
the exposure window in CI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.devices.library import smart_bulb, smart_camera, smart_plug, thermostat
from repro.faults.plan import FaultEvent, FaultPlan

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment
    from repro.netsim.packet import Packet

#: The standard fault schedule (see module docstring).
PARTITION_AT = 4.0
PARTITION_LEN = 3.0
CRASH_AT = 10.0
ATTACK_CAM_START = 4.5
ATTACK_CAM_PERIOD = 0.5
ATTACK_PLUG_START = 1.0
ATTACK_PLUG_PERIOD = 0.25
HORIZON = 30.0
HEALTH_PERIOD = 0.5

#: The federation blackout schedule: first sync and one cross-site
#: signature propagate cleanly, then the coordinator WAN goes dark for a
#: minute while every site is attacked on cached policy.
FEDERATION_BLACKOUT_START = 30.0
FEDERATION_BLACKOUT_END = 90.0
FEDERATION_HORIZON = 120.0
FEDERATION_SYNC_PERIOD = 5.0


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


def schedule_wave(
    dep: "SecuredDeployment",
    start: float,
    period: float,
    horizon: float,
    make_packet: Callable[[], "Packet"],
) -> int:
    """Arm one fresh attacker packet every ``period`` seconds over
    ``[start, horizon)`` at absolute times; returns how many."""
    attacker = dep.attackers["attacker"]
    attempts = 0
    t = start
    while t < horizon:
        dep.sim.schedule_at(t, attacker.fire_and_forget, make_packet())
        attempts += 1
        t += period
    return attempts


def standard_fault_plan() -> FaultPlan:
    """Partition the whole control channel, then crash the plug's µmbox."""
    return FaultPlan(
        [
            FaultEvent(PARTITION_AT, "partition", "*", PARTITION_LEN),
            FaultEvent(CRASH_AT, "mbox-crash", "plug"),
        ]
    )


def run_resilience_scenario(
    resilient: bool,
    seed: int = 7,
    horizon: float = HORIZON,
    drop_prob: float = 0.0,
    jitter: float = 0.0,
    plan: FaultPlan | None = None,
    keep_dep: bool = False,
    health: bool = False,
    setup: Any = None,
) -> dict[str, Any]:
    """Run one arm of the standard scenario; returns the measurements.

    ``drop_prob``/``jitter`` add seeded background loss and delay on top
    of the plan's partitions (the chaos CLI exposes them; the bench keeps
    them at zero so the numbers isolate the two injected faults).  With
    ``keep_dep`` the deployment rides along under ``"dep"`` for forensics
    (``repro incident --chaos``).  ``health`` attaches the SLO/health
    plane (eval period :data:`HEALTH_PERIOD`) and folds its breach
    summary into the result.  ``setup(dep)``, when given, runs right
    before the clock starts (the CLI hooks periodic re-renders there).
    """
    from repro.devices import protocol
    from repro.devices.library import WEMO_BACKDOOR_PORT
    from repro.policy.posture import block_commands
    from repro.sdn.channel import FaultModel

    dep = standard_home(
        consistent_updates=True,
        reliable_control=resilient,
        health_check_period=HEALTH_PERIOD if resilient else None,
        health=health,
        health_period=HEALTH_PERIOD,
    )
    dep.channel.inject_faults(FaultModel(seed=seed, drop_prob=drop_prob, jitter=jitter))
    plan = plan or standard_fault_plan()
    plan.apply(dep)

    dep.secure("plug", block_commands("on"))  # pinned, fail-closed
    dep.enforce_baseline()  # cam: unpinned monitor posture, policy-driven

    if not resilient:
        # The no-resilience world has no degradation policy: a dead µmbox
        # simply stops standing between the attacker and the device.
        for mbox in dep.cluster.mboxes.values():
            mbox.fail_mode = "open"

    # -- attack waves ---------------------------------------------------
    cam_attempts = schedule_wave(
        dep, ATTACK_CAM_START, ATTACK_CAM_PERIOD, horizon,
        lambda: protocol.login("attacker", "cam", "admin", "admin"),
    )
    plug_attempts = schedule_wave(
        dep, ATTACK_PLUG_START, ATTACK_PLUG_PERIOD, horizon,
        lambda: protocol.command("attacker", "plug", "on", dport=WEMO_BACKDOOR_PORT),
    )

    if setup is not None:
        setup(dep)
    dep.run(until=horizon)

    # -- measurements ---------------------------------------------------
    cam = dep.devices["cam"]
    plug = dep.devices["plug"]
    cam_logins_ok = sum(
        1 for __, src, __, ok in cam.login_log if ok and src == "attacker"
    )
    plug_cmds_ok = sum(
        1 for r in plug.command_log if r.accepted and r.src == "attacker"
    )

    # Time from the first attack packet to the camera's enforcement
    # posture landing (the detect -> escalate -> re-enforce chain).
    cam_enforced_at = dep.orchestrator.first_enforced_at("cam")
    cam_exposure = (
        (cam_enforced_at - ATTACK_CAM_START)
        if cam_enforced_at is not None
        else horizon - ATTACK_CAM_START
    )

    # The plug is exposed only while its traffic flows *uninspected*:
    # fail-open downtime counts, fail-closed downtime blocks instead.
    plug_exposure = 0.0
    plug_downtime = 0.0
    reenforce_times = []
    if cam_enforced_at is not None:
        reenforce_times.append(cam_exposure)
    for outage in dep.manager.outages:
        end = outage.restored_at if outage.restored_at is not None else horizon
        plug_downtime += end - outage.down_at
        if outage.fail_mode == "open":
            plug_exposure += end - outage.down_at
        if outage.restored_at is not None:
            reenforce_times.append(outage.restored_at - outage.down_at)

    channel = dep.channel
    result: dict[str, Any] = {
        "arm": "resilient" if resilient else "baseline",
        "seed": seed,
        "horizon_s": horizon,
        "attack_attempts": cam_attempts + plug_attempts,
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
        "ctrl_giveups": channel.giveups,
        "ctrl_duplicates": channel.duplicates,
        "mbox_crashes": dep.manager.crashes,
        "mbox_restarts": dep.manager.restarts,
        "down_drops": dep.cluster.down_drops,
        "fail_open_passes": dep.cluster.fail_open_passes,
        "events": dep.sim.events_processed,
    }
    if health and dep.health_plane is not None:
        result["health"] = health_summary(dep)
    if keep_dep:
        result["dep"] = dep
    return result


# ----------------------------------------------------------------------
# Health-plane scenarios (the `repro health` CLI + the regression gate)
# ----------------------------------------------------------------------

#: Named fault plans `repro health --plan` understands.
HEALTH_PLANS = ("none", "standard", "controller", "long-partition")
CONTROLLER_CRASH_AT = 10.0
LONG_PARTITION_START = 60.0
LONG_PARTITION_HOURS = 0.5


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


def run_health_scenario(
    plan: str = "none",
    seed: int = 7,
    horizon: float | None = None,
    keep_dep: bool = False,
    setup: Any = None,
) -> dict[str, Any]:
    """Run one named health scenario and return its summary.

    ``plan`` picks the schedule:

    - ``none`` -- the standard seeded run (attacked two-device home with
      the full survivability stack), which must end all-green;
    - ``standard`` -- the resilient arm of the standard chaos scenario
      (partition + µmbox crash);
    - ``controller`` -- primary controller crash with a hot standby
      (failover blind window);
    - ``long-partition`` -- a :data:`LONG_PARTITION_HOURS`-hour control
      blackout over the durable telemetry plane.

    The fault plans must drive deterministic, journaled breach->recovery
    chains; the regression gate asserts exactly that.  ``setup(dep)``,
    when given, runs right before the clock starts.
    """
    from repro.attacks.exploits import EXPLOITS
    from repro.faults.plan import long_partition_plan

    if plan not in HEALTH_PLANS:
        raise ValueError(f"unknown health plan {plan!r} (choose from {HEALTH_PLANS})")

    if plan == "standard":
        result = run_resilience_scenario(
            resilient=True, seed=seed, horizon=horizon or HORIZON,
            health=True, keep_dep=keep_dep, setup=setup,
        )
        out = dict(result["health"])
        out["plan"] = plan
        out["events"] = result["events"]
        if keep_dep:
            out["dep"] = result["dep"]
        return out

    standby = plan == "controller"
    durable = plan in ("none", "long-partition")
    if horizon is None:
        if plan == "long-partition":
            horizon = LONG_PARTITION_START + LONG_PARTITION_HOURS * 3600.0 + 120.0
        else:
            horizon = 60.0
    dep = standard_home(
        consistent_updates=True,
        reliable_control=True,
        health_check_period=HEALTH_PERIOD,
        durable_telemetry=durable,
        checkpointing=True,
        standby=standby,
        ha_seed=seed,
        health=True,
        health_period=HEALTH_PERIOD,
    )
    dep.enforce_baseline()
    if plan == "none":
        EXPLOITS["brute_force_login"].launch(dep.attackers["attacker"], "cam", dep.sim)
    elif plan == "controller":
        FaultPlan([FaultEvent(CONTROLLER_CRASH_AT, "controller-crash", "*")]).apply(dep)
    elif plan == "long-partition":
        long_partition_plan(
            start=LONG_PARTITION_START, hours=LONG_PARTITION_HOURS
        ).apply(dep)
    if setup is not None:
        setup(dep)
    dep.run(until=horizon)
    out = health_summary(dep)
    out["plan"] = plan
    out["events"] = dep.sim.events_processed
    if keep_dep:
        out["dep"] = dep
    return out


def run_federation_blackout_scenario(
    sites: int = 4,
    seed: int = 7,
    horizon: float = FEDERATION_HORIZON,
    keep_fed: bool = False,
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
      locally at once, the report queues for the heal;
    - ``t=90``  heal: sync ticks flush the pending report, the
      coordinator versions it, every site replays in order and journals
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
    from repro.devices.library import smart_camera
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

    repo = fed.coordinator.repository
    out = {
        "sites": sites,
        "events": fed.sim.events_processed,
        "attacks_launched": len(results),
        "attacks_blocked": sum(1 for r in results.values() if not r.succeeded),
        "patient_zero_compromised": bool(attackers["site0"].loot_from("cam")),
        "enforcement_gaps": len(gaps),
        "gap_details": gaps,
        "signatures_propagated": repo.version,
        "dlq_quarantined": repo.dlq.quarantined,
        "converged": fed.coordinator.converged(),
        "out_of_order": sum(s.out_of_order for s in fed.sites.values()),
        "pending_after": sum(len(s.pending_reports) for s in fed.sites.values()),
        "autonomy_enters": len(fed.sim.journal.entries(kind="site-autonomy-enter")),
        "autonomy_exits": len(fed.sim.journal.entries(kind="site-autonomy-exit")),
        "offline_s": round(sum(s.offline_s for s in fed.sites.values()), 3),
        "propagation_lag_v1": fed.propagation_lag(1),
    }
    if keep_fed:
        out["fed"] = fed
    return out
