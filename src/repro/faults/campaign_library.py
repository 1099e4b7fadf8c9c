"""The standing campaign corpus: 20 named campaigns over one home.

Every campaign in :data:`CAMPAIGNS` runs against the same
:func:`build_home` deployment -- eight devices from the Table 1 library,
an automation hub with cross-device recipes (the E2 idiom), a
crowdsourced signature feed covering the *known* flaw classes, and one
administrator-pinned enforcing posture (the door lock) -- so per-class
scorecards are comparable across campaigns and across PRs.

The four classes (:data:`~repro.faults.campaign.CAMPAIGN_CLASSES`):

- **single-flaw** -- one device, one Table 1 flaw, the E8 baseline.
- **lateral-movement** -- footholds and pivots across devices (the E5
  attack-graph edges exercised live).
- **fabric-degradation** -- the infrastructure itself is attacked:
  compromised-switch sinkhole/selective-forwarding, µmbox crashes,
  control-channel partitions, seeded chaos.  Containment is expected
  *eventually*; the interesting output is what the degradation window
  cost (and that the campaign-containment SLO burns through it).
- **automation-abuse** -- no packet ever looks malicious: benign IFTTT
  recipes are chained into an attack (section 2.1's break-in).

Deliberate detection gaps are part of the corpus: the plug's *exposed
open port* (8080) has no signature -- only its backdoor does -- so
automation-abuse chains that drive it stay invisible until the
follow-on objective stage.  Per-class recall records the gap instead of
papering over it.

Enforcing classes (:data:`ENFORCING_CLASSES`) must finish with zero
containment misses -- the hard E16 regression gate.  Fabric campaigns
are gated on producing real degradation evidence (sinkholed/bypassed
packets, outages, ``chain-repin``) while still containing by horizon.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Iterable

from repro.core.deployment import DeviceSpec, SecuredDeployment, SiteSpec
from repro.devices.library import (
    cctv_camera,
    door_lock,
    fire_alarm,
    set_top_box,
    smart_camera,
    smart_meter,
    smart_plug,
    window_actuator,
)
from repro.faults.campaign import (
    Campaign,
    CampaignRunner,
    CampaignStage,
    ContainmentTracker,
    attach_campaign_slos,
    journal_digest,
    score_campaign,
)
from repro.faults.chaos import ChaosGenerator

__all__ = [
    "ENFORCING_CLASSES",
    "CAMPAIGNS",
    "FIG3_BREAK_IN",
    "FIG4_CAM_TAKEOVER",
    "THERMAL_BREAK_IN",
    "OVEN_ARSON",
    "fleet_hijack",
    "CAM_BRUTE_FORCE",
    "FAILOVER_WAVES",
    "resilience_waves",
    "no_attack",
    "CAMPAIGN_HOME",
    "build_home",
    "build_library",
    "campaigns_by_class",
    "get_campaign",
    "arm_campaign",
    "checked",
    "measure_campaign",
    "run_campaign",
    "run_class",
]

#: Classes whose campaigns must end fully contained (the hard CI gate).
ENFORCING_CLASSES = ("single-flaw", "lateral-movement", "automation-abuse")

#: Well-known ports of the standard home (duplicated as plain ints so
#: campaign JSON round-trips without code references).
WEMO_BACKDOOR = 49153
FIREALARM_BACKDOOR = 41794
OPEN_PORT = 8080
CTRL = 4444

HEALTH_PERIOD = 0.5


# ----------------------------------------------------------------------
# The standard home
# ----------------------------------------------------------------------
#: The campaign home's planes (the resilient arm of the standard scenario's
#: plus the SLO/health plane) and fleet: eight Table 1 devices, one attacker.
CAMPAIGN_HOME = SiteSpec(
    consistent_updates=True,
    reliable_control=True,
    health_check_period=HEALTH_PERIOD,
    health=True,
    health_period=HEALTH_PERIOD,
    devices=(
        DeviceSpec(smart_camera, "cam"),
        DeviceSpec(smart_plug, "plug", {"load": {"hazard": 1.0}}),
        DeviceSpec(window_actuator, "window"),
        DeviceSpec(door_lock, "lock"),
        DeviceSpec(fire_alarm, "alarm"),
        DeviceSpec(set_top_box, "stb"),
        DeviceSpec(smart_meter, "meter"),
        DeviceSpec(cctv_camera, "cctv"),
    ),
    attackers=("attacker",),
)


def build_home(health: bool = True) -> "SecuredDeployment":
    """One protected home every campaign runs against: :data:`CAMPAIGN_HOME`
    (``health`` keeps its SLO/health plane), an unmanaged reflection victim
    and the hub's recipes.  The signature feed covers the backdoor/open-port/
    DNS flaw classes; login storms are caught by the monitor posture's login
    monitor via the controller's escalation window.
    """
    from repro.core.orchestrator import build_recommended_posture
    from repro.learning.repository import CrowdRepository
    from repro.learning.signatures import (
        backdoor_signature,
        dns_amplification_signature,
    )
    from repro.netsim.node import Host
    from repro.policy.ifttt import Recipe

    dep = SecuredDeployment(replace(CAMPAIGN_HOME, health=health))

    # The reflection victim: an unmanaged host on the same edge.
    victim = Host("victim", dep.sim)
    dep.topology.add(victim)
    dep.topology.connect(dep.edge, victim, latency=0.005)

    # The automation layer the abuse class weaponizes.  Env recipes fire
    # on level changes; device recipes are polled edge-triggered.
    hub = dep.hub
    hub.add_recipe(Recipe("welcome-unlock", "dev:plug", "on", "lock", "unlock"))
    hub.add_recipe(Recipe("smoke-vent", "env:smoke", "detected", "window", "open"))
    hub.add_recipe(Recipe("heat-vent", "env:temperature", "high", "window", "open"))
    hub.add_recipe(Recipe("welcome-plug-on", "env:occupancy", "present", "plug", "on"))
    hub.watch_devices(
        lambda name: getattr(dep.devices.get(name), "state", None),
        poll=HEALTH_PERIOD,
    )

    dep.finalize()

    # Crowdsourced signature coverage for the *known* flaw classes.  The
    # plug's exposed 8080 port deliberately has none (see module doc).
    repository = CrowdRepository(dep.sim)
    plug_sku = dep.devices["plug"].sku
    alarm_sku = dep.devices["alarm"].sku
    stb_sku = dep.devices["stb"].sku
    alarm_backdoor = dep.devices["alarm"].firmware.backdoor_port or FIREALARM_BACKDOOR
    for signature in (
        backdoor_signature(plug_sku, WEMO_BACKDOOR),
        backdoor_signature(alarm_sku, alarm_backdoor),
        backdoor_signature(stb_sku, OPEN_PORT),
        dns_amplification_signature(plug_sku),
    ):
        repository.publish(signature, reporter="crowd-seed")
    dep.attach_repository(repository)

    # The administrator's one explicit decision: the front door lock is
    # pinned default-deny (hub and controller stay trusted, so benign --
    # and abused -- automation still passes).  Enforcing => fail-closed.
    dep.secure(
        "lock",
        build_recommended_posture(
            "stateful_firewall", "lock", trusted_sources=(dep.HUB, dep.CONTROLLER)
        ),
    )
    dep.enforce_baseline()
    return dep


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------
S = CampaignStage


def _single_flaw() -> list[Campaign]:
    return [
        Campaign(
            "cam-default-creds",
            "single-flaw",
            description="Default-credential hijack of the camera, then a noisy "
            "credential re-use wave (Table 1 row 1).",
            seed=101,
            horizon=30.0,
            expect_contained=("cam",),
            stages=(
                S("hijack", 2.0, "exploit",
                  {"exploit": "default_credential_hijack"}, target="cam"),
                S("cred-wave", 4.0, "login",
                  {"username": "admin", "password": "admin", "count": 8,
                   "period": 0.4},
                  target="cam", jitter=0.5, depends_on=("hijack",)),
            ),
        ),
        Campaign(
            "plug-backdoor-blast",
            "single-flaw",
            description="Hammer the Wemo debug backdoor (signatured flaw class).",
            seed=102,
            horizon=25.0,
            expect_contained=("plug",),
            stages=(
                S("blast", 2.0, "command",
                  {"command": "on", "dport": WEMO_BACKDOOR, "count": 10,
                   "period": 0.5},
                  target="plug", jitter=0.3),
            ),
        ),
        Campaign(
            "window-bruteforce",
            "single-flaw",
            description="Fig. 3's brute-forced window password.",
            seed=103,
            horizon=25.0,
            expect_contained=("window",),
            stages=(
                S("brute", 2.0, "exploit",
                  {"exploit": "brute_force_login"}, target="window"),
            ),
        ),
        Campaign(
            "meter-default-creds",
            "single-flaw",
            description="Service-account default credentials on the meter; the "
            "dictionary walk itself trips the login-attempt window.",
            seed=104,
            horizon=25.0,
            expect_contained=("meter",),
            stages=(
                S("hijack", 2.0, "exploit",
                  {"exploit": "default_credential_hijack"}, target="meter"),
            ),
        ),
        Campaign(
            "cctv-key-extraction",
            "single-flaw",
            description="Firmware RSA key extraction, then noisy re-use of the "
            "derived credentials (Table 1 row 5).",
            seed=105,
            horizon=30.0,
            expect_contained=("cctv",),
            stages=(
                S("extract", 2.0, "exploit",
                  {"exploit": "firmware_key_extraction"}, target="cctv"),
                S("derived-wave", 4.0, "login",
                  {"username": "root", "password": "derived-from-rsa",
                   "count": 6, "period": 0.3},
                  target="cctv", depends_on=("extract",),
                  precondition={"kind": "loot", "target": "cctv"}),
            ),
        ),
        Campaign(
            "stb-open-probe",
            "single-flaw",
            description="Unauthenticated control via the set-top box's exposed "
            "port (signatured as a backdoor-class flaw).",
            seed=106,
            horizon=25.0,
            expect_contained=("stb",),
            stages=(
                S("probe", 2.0, "exploit",
                  {"exploit": "open_access_control", "port": OPEN_PORT,
                   "command": "play"},
                  target="stb"),
                S("replay", 3.0, "command",
                  {"command": "play", "dport": OPEN_PORT, "count": 6,
                   "period": 0.5},
                  target="stb", jitter=0.4, depends_on=("probe",)),
            ),
        ),
    ]


def _lateral_movement() -> list[Campaign]:
    return [
        Campaign(
            "plug-pivot-lock",
            "lateral-movement",
            description="Backdoor foothold on the plug, then a pivot command "
            "aimed at the door lock through it (E5 graph edge).",
            seed=201,
            horizon=25.0,
            expect_contained=("plug",),
            stages=(
                S("foothold", 2.0, "command",
                  {"command": "on", "dport": WEMO_BACKDOOR, "count": 3,
                   "period": 0.3},
                  target="plug"),
                S("pivot", 4.0, "exploit",
                  {"exploit": "lateral_movement", "backdoor_port": WEMO_BACKDOOR,
                   "victim": "lock", "victim_port": CTRL,
                   "inner_payload": {"cmd": "unlock"}},
                  target="plug", depends_on=("foothold",), jitter=0.3),
            ),
        ),
        Campaign(
            "alarm-pivot-window",
            "lateral-movement",
            description="Fig. 3's chain: fire-alarm backdoor as the launchpad "
            "toward the window actuator.",
            seed=202,
            horizon=25.0,
            expect_contained=("alarm",),
            stages=(
                S("knock", 2.0, "exploit",
                  {"exploit": "backdoor_command",
                   "backdoor_port": FIREALARM_BACKDOOR, "command": "test"},
                  target="alarm"),
                S("pivot", 4.0, "exploit",
                  {"exploit": "lateral_movement",
                   "backdoor_port": FIREALARM_BACKDOOR, "victim": "window",
                   "victim_port": CTRL, "inner_payload": {"cmd": "open"}},
                  target="alarm", depends_on=("knock",), jitter=0.3),
            ),
        ),
        Campaign(
            "dns-reflection-flood",
            "lateral-movement",
            description="The plug's open resolver amplifies a flood into the "
            "victim host (Fig. 5).",
            seed=203,
            horizon=25.0,
            expect_contained=("plug",),
            stages=(
                S("flood", 2.0, "exploit",
                  {"exploit": "dns_reflection_ddos", "victim": "victim",
                   "queries": 40, "rate": 80.0},
                  target="plug"),
            ),
        ),
        Campaign(
            "cam-loot-sweep",
            "lateral-movement",
            description="Loot the camera, sweep on to the meter, and finish on "
            "the window once the credential cache proves out.",
            seed=204,
            horizon=35.0,
            expect_contained=("meter", "window"),
            stages=(
                S("cam-hijack", 2.0, "exploit",
                  {"exploit": "default_credential_hijack"}, target="cam"),
                S("meter-hijack", 5.0, "exploit",
                  {"exploit": "default_credential_hijack"},
                  target="meter", depends_on=("cam-hijack",), jitter=0.5),
                S("window-brute", 8.0, "exploit",
                  {"exploit": "brute_force_login"},
                  target="window", depends_on=("meter-hijack",),
                  precondition={"kind": "loot", "target": "cam"}),
            ),
        ),
        Campaign(
            "hub-impersonation-lock",
            "lateral-movement",
            description="Hub commands forged from the attacker's port at the "
            "pinned lock, whose firewall trusts the hub's address: only the "
            "edge's source binding stands in the way.",
            seed=205,
            horizon=25.0,
            expect_contained=("lock",),
            stages=(
                S("forge", 2.0, "command",
                  {"command": "unlock", "src": "hub", "count": 5, "period": 0.5},
                  target="lock", jitter=0.3),
            ),
        ),
    ]


def _fabric_degradation() -> list[Campaign]:
    campaigns = [
        Campaign(
            "sinkhole-blackout",
            "fabric-degradation",
            description="A compromised edge switch sinkholes all tunnel-bound "
            "traffic: the µmboxes go dark while a credential wave runs.  The "
            "containment SLO burns until the fabric recovers.",
            seed=301,
            horizon=30.0,
            expect_contained=("cam",),
            deadline=8.0,
            stages=(
                S("sinkhole", 4.0, "routing-attack",
                  {"mode": "sinkhole", "switch": "edge", "duration": 10.0}),
                S("wave-under-cover", 5.0, "login",
                  {"username": "admin", "password": "admin", "count": 24,
                   "period": 0.5},
                  target="cam", depends_on=("sinkhole",)),
            ),
        ),
        Campaign(
            "selective-forward-smuggle",
            "fabric-degradation",
            description="Selective forwarding diverts a seeded fraction of the "
            "camera's traffic around inspection: enforcement lands, but "
            "smuggled packets keep bypassing it until disengage.",
            seed=302,
            horizon=30.0,
            expect_contained=("cam",),
            stages=(
                S("divert", 3.0, "routing-attack",
                  {"mode": "selective-forward", "switch": "edge",
                   "drop_prob": 0.7, "duration": 12.0, "target": "cam"}),
                S("smuggled-creds", 4.0, "login",
                  {"username": "admin", "password": "admin", "count": 20,
                   "period": 0.4},
                  target="cam", depends_on=("divert",), jitter=0.3),
            ),
        ),
        Campaign(
            "mbox-crash-cover",
            "fabric-degradation",
            description="Crash the pinned lock's µmbox and rattle the lock "
            "during the outage: fail-closed must hold, and recovery must "
            "re-pin the chain.",
            seed=303,
            horizon=25.0,
            expect_contained=("lock",),
            stages=(
                S("crash", 4.0, "fault",
                  {"fault": "mbox-crash", "target": "lock"}),
                S("rattle", 4.5, "login",
                  {"username": "owner", "password": "guess", "count": 10,
                   "period": 0.4},
                  target="lock", depends_on=("crash",)),
            ),
        ),
        Campaign(
            "partition-alert-gap",
            "fabric-degradation",
            description="Brute-force the window inside a control-channel "
            "partition under an alert-storm cover: detection evidence must "
            "survive the gap and land when the channel heals.",
            seed=304,
            horizon=30.0,
            expect_contained=("window",),
            stages=(
                S("cut", 3.0, "fault",
                  {"fault": "partition", "target": "*", "duration": 4.0}),
                S("brute", 3.5, "exploit",
                  {"exploit": "brute_force_login"},
                  target="window", depends_on=("cut",)),
                S("storm", 3.5, "fault",
                  {"fault": "alert-storm", "target": "cam", "duration": 3.0,
                   "intensity": 60.0}),
            ),
        ),
    ]
    campaigns.append(_chaos_assault())
    return campaigns


def _chaos_assault() -> Campaign:
    """Seeded-chaos background (ChaosGenerator) under a persistent attack."""
    plan = ChaosGenerator(seed=23).generate(
        duration=18.0,
        endpoints=("*",),
        devices=("cam", "stb"),
        link_flaps=0,
        partitions=2,
        crashes=2,
        warmup=2.0,
    )
    stages: list[CampaignStage] = []
    for i, event in enumerate(plan.events):
        params: dict[str, Any] = {"fault": event.kind, "target": event.target}
        if event.duration:
            params["duration"] = event.duration
        if event.intensity:
            params["intensity"] = event.intensity
        stages.append(S(f"chaos-{i}", event.at, "fault", params))
    stages.append(
        S("persist", 6.0, "login",
          {"username": "admin", "password": "admin", "count": 16, "period": 0.5},
          target="cam")
    )
    return Campaign(
        "chaos-assault",
        "fabric-degradation",
        description="A seeded chaos schedule (partitions + µmbox crashes from "
        "ChaosGenerator) while a credential wave persists on the camera.",
        seed=305,
        horizon=30.0,
        expect_contained=("cam",),
        stages=stages,
    )


def _automation_abuse() -> list[Campaign]:
    return [
        Campaign(
            "plug-unlock-chain",
            "automation-abuse",
            description="Section 2.1's break-in: turn the plug on through its "
            "exposed port (no signature, no alert), let the welcome-unlock "
            "recipe open the front door, then go for the camera inside.",
            seed=401,
            horizon=30.0,
            expect_contained=("cam",),
            stages=(
                S("plug-on", 2.0, "command",
                  {"command": "on", "dport": OPEN_PORT}, target="plug"),
                S("burgle-cam", 7.0, "exploit",
                  {"exploit": "default_credential_hijack"},
                  target="cam", depends_on=("plug-on",),
                  precondition={"kind": "device-state", "device": "lock",
                                "state": "unlocked"}),
                S("cam-wave", 8.5, "login",
                  {"username": "admin", "password": "admin", "count": 8,
                   "period": 0.4},
                  target="cam", depends_on=("burgle-cam",), jitter=0.4),
            ),
        ),
        Campaign(
            "smoke-vent-breakin",
            "automation-abuse",
            description="Spoof smoke into the environment so the smoke-vent "
            "recipe opens the window, then attack the opened window's "
            "controller.",
            seed=402,
            horizon=25.0,
            expect_contained=("window",),
            stages=(
                S("spoof-smoke", 2.0, "env-set",
                  {"variable": "smoke", "value": 0.9}),
                S("window-entry", 5.0, "exploit",
                  {"exploit": "brute_force_login"},
                  target="window", depends_on=("spoof-smoke",),
                  precondition={"kind": "device-state", "device": "window",
                                "state": "open"}),
            ),
        ),
        Campaign(
            "presence-spoof-hazard",
            "automation-abuse",
            description="Spoof occupancy so the welcome recipe powers the "
            "hazardous plug load, then hold it on via the backdoor.",
            seed=403,
            horizon=25.0,
            expect_contained=("plug",),
            stages=(
                S("spoof-presence", 2.0, "env-set",
                  {"variable": "occupancy", "value": "present"}),
                S("backdoor-hold", 4.0, "command",
                  {"command": "on", "dport": WEMO_BACKDOOR, "count": 8,
                   "period": 0.4},
                  target="plug", depends_on=("spoof-presence",), jitter=0.3),
            ),
        ),
        Campaign(
            "heat-vent-entry",
            "automation-abuse",
            description="Overheat the environment so the heat-vent recipe opens "
            "the window, then probe the pinned lock from inside: the "
            "fail-closed pin must hold.",
            seed=404,
            horizon=25.0,
            expect_contained=("lock",),
            stages=(
                S("heat", 2.0, "env-set",
                  {"variable": "temperature", "value": 40.0}),
                S("probe-lock", 5.0, "login",
                  {"username": "owner", "password": "123456", "count": 8,
                   "period": 0.4},
                  target="lock", depends_on=("heat",),
                  precondition={"kind": "device-state", "device": "window",
                                "state": "open"}),
            ),
        ),
    ]


def build_library() -> dict[str, Campaign]:
    """All shipped campaigns by name (insertion-ordered by class)."""
    campaigns: list[Campaign] = [
        *_single_flaw(),
        *_lateral_movement(),
        *_fabric_degradation(),
        *_automation_abuse(),
    ]
    return {campaign.name: campaign for campaign in campaigns}


#: The standing corpus.
CAMPAIGNS: dict[str, Campaign] = build_library()


#: The paper's own attacks (Figs. 3-5, section 2.1, E11's sweep).  They
#: name the devices of the figures' bespoke homes, not the standard home,
#: so they sit beside the corpus rather than in it: each home is built
#: once, by ``arm_fig3``/``arm_fig4``/``arm_fig5``/``arm_thermal`` and
#: ``run_fleet_immunity`` in :mod:`repro.faults.scenario`, and driven by a
#: plain ``CampaignRunner``.
FIG3_BREAK_IN = Campaign(
    "fig3-break-in",
    "lateral-movement",
    description="Force the alarm state through the FireAlarm backdoor so a "
    "ventilation recipe opens the window; fall back to brute-forcing the "
    "window's password (both attack transitions of the Fig. 3 FSM).",
    horizon=120.0,
    stages=(
        S("firealarm_backdoor", 5.0, "exploit",
          {"exploit": "backdoor_command", "backdoor_port": FIREALARM_BACKDOOR, "command": "test"},
          target="fire_alarm"),
        S("window_brute_force", 30.0, "exploit",
          {"exploit": "brute_force_login", "command": "open"}, target="window"),
    ),
)
THERMAL_BREAK_IN = Campaign(
    "thermal-break-in",
    "automation-abuse",
    description="One backdoor packet turns the AC plug off; heat and the "
    "victim's own cool-down recipe open the window (section 2.1).",
    horizon=1200.0,
    stages=(
        S("plug_backdoor_off", 10.0, "exploit",
          {"exploit": "backdoor_command", "backdoor_port": WEMO_BACKDOOR, "command": "off"},
          target="ac_plug"),
    ),
)
FIG4_CAM_TAKEOVER = Campaign(
    "fig4-cam-takeover",
    "single-flaw",
    description="Log into the camera with its hardcoded vendor password and "
    "fetch an image, while a dictionary attack runs beside it (Fig. 4).",
    horizon=60.0,
    stages=(
        S("hijack", 0.0, "exploit",
          {"exploit": "default_credential_hijack", "resource": "image"}, target="cam"),
        S("brute_force", 0.0, "exploit", {"exploit": "brute_force_login"}, target="cam"),
    ),
)
OVEN_ARSON = Campaign(
    "oven-arson",
    "single-flaw",
    description="Remotely power the Wemo's oven while nobody is home (Fig. 5).",
    horizon=600.0,
    stages=(
        S("oven_plug_backdoor_on", 1.0, "exploit",
          {"exploit": "backdoor_command", "backdoor_port": WEMO_BACKDOOR, "command": "on"},
          target="wemo"),
    ),
)


def fleet_hijack(at: float, horizon: float) -> Campaign:
    """E11's sweep as one site sees it: the camera's vendor password, and
    an image fetched with it, at ``at``."""
    return Campaign(
        "fleet-hijack",
        "single-flaw",
        description="One site's turn in a sweep across identical cameras (E11).",
        horizon=horizon,
        stages=(
            S("hijack", at, "exploit",
              {"exploit": "default_credential_hijack", "resource": "image"}, target="cam"),
        ),
    )


#: The attacks of the canned scenarios (:mod:`repro.faults.scenario`),
#: aimed at the two-device ``standard_home``.
CAM_BRUTE_FORCE = Campaign(
    "cam-brute-force",
    "single-flaw",
    description="Dictionary attack on the camera's login from t=0 (the "
    "attacked home behind `repro report` and friends).",
    stages=(S("brute", 0.0, "exploit", {"exploit": "brute_force_login"}, target="cam"),),
)
FAILOVER_WAVES = Campaign(
    "failover-waves",
    "fabric-degradation",
    description="Two logins before the controller dies at t=10 -- two of the "
    "five the escalation window needs, so only a restore that rebuilds the "
    "sliding windows escalates on the wave's third attempt, not its fifth -- "
    "then a credential wave from t=10.5 to the horizon (bench E13a).",
    horizon=40.0,
    expect_contained=("cam",),
    stages=(
        S("background", 3.0, "login",
          {"username": "admin", "password": "admin", "count": 2, "period": 3.0},
          target="cam"),
        S("wave", 10.5, "login",
          {"username": "admin", "password": "admin", "count": 59, "period": 0.5},
          target="cam"),
    ),
)


def resilience_waves(horizon: float = 30.0) -> Campaign:
    """Bench E12's attack: backdoor ``on`` commands at the plug every
    0.25 s from t=1, and from t=4.5 (inside the partition) also
    default-credential logins at the camera every 0.5 s, until ``horizon``.

    The plug's wave is two stages, split where the camera's begins and
    listed after it.  A wave arms its shots when its stage fires, so on
    every instant the two waves share the camera's shot goes first --
    and under seeded channel loss (``repro chaos --drop``) the order of
    two sends decides which alert a drop lands on.
    """

    def wave(name: str, start: float, end: float, period: float, kind: str,
             target: str, **params: Any) -> list[CampaignStage]:
        count = math.ceil((min(end, horizon) - start) / period)
        params.update(count=count, period=period)
        return [S(name, start, kind, params, target=target)] if count > 0 else []

    backdoor = {"command": "on", "dport": WEMO_BACKDOOR}
    return Campaign(
        "resilience-waves",
        "fabric-degradation",
        description="Hammer the plug's backdoor, then the camera's login too, "
        "while the control channel partitions and the plug's µmbox crashes.",
        horizon=horizon,
        expect_contained=("cam",),
        stages=(
            *wave("plug-probe", 1.0, 4.5, 0.25, "command", "plug", **backdoor),
            *wave("cam-logins", 4.5, horizon, 0.5, "login", "cam",
                  username="admin", password="admin"),
            *wave("plug-backdoor", 4.5, horizon, 0.25, "command", "plug", **backdoor),
        ),
    )


def no_attack(horizon: float) -> Campaign:
    """Nobody attacks: the scenario's adversity is all in its fault plan."""
    return Campaign("no-attack", "fabric-degradation", horizon=horizon)


def get_campaign(name: str) -> Campaign:
    try:
        return CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"no campaign named {name!r} (know {sorted(CAMPAIGNS)})"
        ) from None


def campaigns_by_class(campaign_class: str) -> list[Campaign]:
    return [c for c in CAMPAIGNS.values() if c.campaign_class == campaign_class]


# ----------------------------------------------------------------------
# Execution + per-class rollup
# ----------------------------------------------------------------------
def arm_campaign(
    campaign: Campaign, seed: int | None = None, health: bool = True
) -> tuple["SecuredDeployment", CampaignRunner]:
    """A fresh standard home with ``campaign`` armed on it, its
    containment tracked live and (with ``health``) folded into the SLO
    plane; the caller runs it to ``campaign.horizon``."""
    dep = build_home(health=health)
    tracker = ContainmentTracker(
        dep, campaign.expect_contained, deadline=campaign.deadline,
        period=HEALTH_PERIOD,
    )
    if dep.health_plane is not None:
        attach_campaign_slos(dep, dep.health_plane, tracker)
    return dep, CampaignRunner(campaign, dep, seed=seed, tracker=tracker).start()


def checked(dep: "SecuredDeployment") -> "SecuredDeployment":
    """The run-level invariants every measure step holds a finished run to."""
    violations = dep.orchestrator.offload_violations()
    assert not violations, violations
    return dep


def measure_campaign(dep: "SecuredDeployment", runner: CampaignRunner) -> dict[str, Any]:
    """:func:`score_campaign` plus the SLO fold-in: the number of
    journaled breaches overall and of the campaign-containment SLO in
    particular, and the deterministic journal digest."""
    score = score_campaign(checked(dep), runner)
    journal = dep.sim.journal
    breaches = journal.entries(kind="slo-breach")
    score["slo_breaches"] = len(breaches)
    score["containment_breaches"] = sum(
        1 for e in breaches if e.fields.get("slo") == "campaign-containment"
    )
    score["repin_count"] = len(journal.entries(kind="chain-repin"))
    score["routing_attack_records"] = len(journal.entries(kind="routing-attack"))
    score["journal_digest"] = journal_digest(journal)
    return score


def run_campaign(
    campaign: Campaign, seed: int | None = None, health: bool = True
) -> dict[str, Any]:
    """Arm, run to the campaign's horizon, measure."""
    dep, runner = arm_campaign(campaign, seed, health)
    dep.run(until=campaign.horizon)
    return measure_campaign(dep, runner)


def run_class(
    campaign_class: str,
    names: Iterable[str] | None = None,
    health: bool = True,
) -> dict[str, Any]:
    """Run every campaign of a class; return the per-class scorecard."""
    selected = [
        c
        for c in campaigns_by_class(campaign_class)
        if names is None or c.name in set(names)
    ]
    results = [run_campaign(c, health=health) for c in selected]
    attacked = sum(len(r["attacked"]) for r in results)
    detected = sum(
        round(r["detection_recall"] * len(r["attacked"])) for r in results
    )
    ttcs = [t for r in results for t in r["time_to_containment_s"].values()]
    return {
        "class": campaign_class,
        "campaigns": len(results),
        "results": results,
        "containment_misses": sorted(
            {m for r in results for m in r["containment_misses"]}
        ),
        "recall": round(detected / attacked, 6) if attacked else 1.0,
        "mean_ttc_s": round(sum(ttcs) / len(ttcs), 6) if ttcs else None,
        "max_ttc_s": round(max(ttcs), 6) if ttcs else None,
        "total_exposure_s": round(
            sum(r["total_exposure_s"] for r in results), 6
        ),
        "graceful_ok": all(r["graceful_degradation"]["ok"] for r in results),
        "fabric_degraded": any(r["fabric_degraded"] for r in results),
        "containment_breaches": sum(r["containment_breaches"] for r in results),
    }
