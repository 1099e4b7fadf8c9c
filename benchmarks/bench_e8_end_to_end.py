"""E8: end-to-end defence quality over a mixed benign/attack workload.

The capstone experiment: one smart home, the full Table 1 attack suite,
plus the benign traffic the home depends on (automation recipes, owner
logins, telemetry).  Three arms:

- **current world** -- no defence at all;
- **static perimeter ACL** -- the traditional-IT strawman of section 3.1:
  the admin permits inbound to the management/control ports (the remote
  app needs them!) and denies the rest, once, statically;
- **IoTSec** -- flaw-informed baseline postures per device (the registry
  of Table 1 tells the controller what each SKU ships), crowdsourced
  signatures, context escalation, and the cross-device occupancy gate.

Reported per arm: attacks blocked / total, benign operations preserved /
total.  Expected shape: current world blocks nothing; the ACL blocks only
the out-of-band vectors (vendor backdoor port, DNS reflection) while every
in-band attack rides the ports the ACL must keep open; IoTSec blocks all
attacks while preserving all benign operations.
"""

from __future__ import annotations

from _util import percent, print_table, record

from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import (
    WEMO_BACKDOOR_PORT,
    set_top_box,
    smart_bulb,
    smart_camera,
    smart_plug,
    window_actuator,
)
from repro.netsim.node import Host
from repro.policy.ifttt import Recipe
from repro.sdn.flowrule import Action, FlowMatch, FlowRule

NEW_PASSWORD = "S3cure!gateway"


def build_home(arm: str):
    dep = SecuredDeployment.build(with_iotsec=(arm == "iotsec"))
    cam = dep.add_device(smart_camera, "cam")
    wemo = dep.add_device(smart_plug, "wemo", load={"hazard": 1.0})
    window = dep.add_device(window_actuator, "window")
    stb = dep.add_device(set_top_box, "stb")
    bulb = dep.add_device(smart_bulb, "bulb")
    attacker = dep.add_attacker()
    owner = dep.add_attacker("owner_phone", latency=0.005)
    victim = Host("victim", dep.sim)
    dep.topology.add(victim)
    dep.topology.connect("edge", victim, latency=0.005)
    dep.hub.add_recipe(Recipe("evening-light", "env:occupancy", "present", "bulb", "on"))
    dep.finalize()

    if arm == "acl":
        # The admin's one-shot perimeter config: the remote app needs the
        # management and control ports, so they stay open; everything else
        # inbound from the uplink is dropped.
        edge = dep.edge
        internet_port = edge.port_to("internet")
        attacker_port = edge.port_to("attacker")
        for port in (internet_port, attacker_port):
            for allowed in (80, 8080):
                edge.install(
                    FlowRule(
                        match=FlowMatch(in_port=port, dport=allowed),
                        actions=(Action.normal(),),
                        priority=600,
                    )
                )
            edge.install(
                FlowRule(
                    match=FlowMatch(in_port=port),
                    actions=(Action.drop(),),
                    priority=400,
                )
            )

    if arm == "iotsec":
        trusted = (dep.HUB, dep.CONTROLLER, "owner_phone")
        dep.secure(
            "cam",
            build_recommended_posture(
                "password_proxy", "cam", new_password=NEW_PASSWORD
            ),
        )
        # flaw-informed hardening from the vulnerability registry
        dep.secure(
            "wemo",
            build_recommended_posture("stateful_firewall", "wemo", trusted_sources=trusted),
        )
        dep.secure(
            "stb",
            build_recommended_posture("stateful_firewall", "stb", trusted_sources=trusted),
        )
        dep.secure(
            "window",
            build_recommended_posture("monitor", "window", sku=window.sku),
            pin=False,  # escalation may harden it further
        )
    return dep, {
        "cam": cam, "wemo": wemo, "window": window, "stb": stb, "bulb": bulb,
        "attacker": attacker, "owner": owner, "victim": victim,
    }


def run_arm(arm: str) -> dict:
    dep, nodes = build_home(arm)
    sim = dep.sim
    attacker = nodes["attacker"]
    owner = nodes["owner"]

    # --- attacks (staggered) ---
    results = {}
    sim.schedule(1.0, lambda: results.update(
        cred=EXPLOITS["default_credential_hijack"].launch(attacker, "cam", sim, resource="image")
    ))
    sim.schedule(5.0, lambda: results.update(
        backdoor=EXPLOITS["backdoor_command"].launch(
            attacker, "wemo", sim, backdoor_port=WEMO_BACKDOOR_PORT, command="on")
    ))
    sim.schedule(10.0, lambda: results.update(
        dns=EXPLOITS["dns_reflection_ddos"].launch(
            attacker, "wemo", sim, victim="victim", queries=30, rate=100.0)
    ))
    sim.schedule(20.0, lambda: results.update(
        brute=EXPLOITS["brute_force_login"].launch(attacker, "window", sim, command="open")
    ))
    sim.schedule(40.0, lambda: results.update(
        open_access=EXPLOITS["open_access_control"].launch(
            attacker, "stb", sim, port=8080, command="play")
    ))

    # --- benign operations ---
    benign = {"owner_login": False, "recipe_fired": False, "owner_wemo": False}
    password = NEW_PASSWORD if arm == "iotsec" else "admin"

    def owner_login() -> None:
        owner.request(
            protocol.login("owner_phone", "cam", "admin", password),
            lambda rep: benign.update(owner_login=protocol.is_ok(rep)),
        )

    sim.schedule(30.0, owner_login)
    sim.schedule(50.0, lambda: dep.env.discrete("occupancy").set("present"))

    def owner_wemo() -> None:
        owner.request(
            protocol.command("owner_phone", "wemo", "off", dport=8080),
            lambda rep: benign.update(owner_wemo=protocol.is_ok(rep)),
        )

    sim.schedule(60.0, owner_wemo)
    dep.run(until=120.0)

    benign["recipe_fired"] = nodes["bulb"].state == "on"
    reflected = sum(p.size for p in nodes["victim"].inbox if p.protocol == "dns")

    attack_outcomes = {
        "default-cred hijack (cam)": bool(attacker.loot_from("cam")),
        "backdoor (wemo)": any(
            r.via == "backdoor" and r.accepted for r in nodes["wemo"].command_log
        ),
        "dns reflection (wemo)": reflected > 30 * 60,
        "brute force (window)": nodes["window"].state == "open",
        "open access (stb)": nodes["stb"].state == "playing",
    }

    # Causal trace of the brute-force response on the IoTSec arm: the
    # window's posture hardening should be followable packet -> posture.
    trace_stages: list[dict] = []
    if arm == "iotsec":
        tracer = sim.tracer
        for trace_id in reversed(tracer.traces_for("window")):
            spans = tracer.spans(trace_id)
            if any(s.stage == "actuate" for s in spans):
                trace_stages = [s.as_dict() for s in spans]
                break

    return {
        "arm": arm,
        "attacks": attack_outcomes,
        "benign": benign,
        "blocked": sum(1 for ok in attack_outcomes.values() if not ok),
        "benign_ok": sum(1 for ok in benign.values() if ok),
        "trace": trace_stages,
    }


def test_e8_end_to_end(scenario_benchmark):
    def run_all():
        return [run_arm(arm) for arm in ("none", "acl", "iotsec")]

    results = scenario_benchmark(run_all)
    by_arm = {r["arm"]: r for r in results}

    attack_names = list(results[0]["attacks"])
    print_table(
        "E8: the full attack suite across defence arms (True = attacker wins)",
        ["Attack"] + [r["arm"] for r in results],
        [
            tuple([name] + [by_arm[r["arm"]]["attacks"][name] for r in results])
            for name in attack_names
        ],
    )
    print_table(
        "E8: summary",
        ["Arm", "Attacks blocked", "Benign preserved"],
        [
            (
                r["arm"],
                f"{r['blocked']}/{len(r['attacks'])}",
                f"{r['benign_ok']}/{len(r['benign'])}",
            )
            for r in results
        ],
    )
    record(
        scenario_benchmark,
        "summary",
        {r["arm"]: {"blocked": r["blocked"], "benign_ok": r["benign_ok"]} for r in results},
    )
    record(scenario_benchmark, "iotsec_trace", by_arm["iotsec"]["trace"])

    none, acl, iotsec = by_arm["none"], by_arm["acl"], by_arm["iotsec"]
    # current world: everything lands, benign works
    assert none["blocked"] == 0
    assert none["benign_ok"] == len(none["benign"])
    # the perimeter ACL blocks only the out-of-band vectors
    assert not acl["attacks"]["backdoor (wemo)"]
    assert not acl["attacks"]["dns reflection (wemo)"]
    assert acl["attacks"]["default-cred hijack (cam)"]
    assert acl["attacks"]["open access (stb)"]
    assert 0 < acl["blocked"] < len(acl["attacks"])
    # IoTSec blocks everything and preserves all benign operations
    assert iotsec["blocked"] == len(iotsec["attacks"])
    assert iotsec["benign_ok"] == len(iotsec["benign"])
    # ...and the response is causally traceable end to end: the brute-force
    # packets produced an alert, the alert an escalation, the escalation an
    # evaluation round, the round a posture actuation -- one trace.
    stages = {s["stage"] for s in iotsec["trace"]}
    assert {"detect", "ingest-alert", "escalate", "evaluate", "actuate"} <= stages
    assert all(s["latency"] >= 0 for s in iotsec["trace"])
