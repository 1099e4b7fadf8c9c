"""E10 (extension): reflection DDoS as a physical phenomenon.

Table 1 row 6 says the Wemo's open resolver was "use[d] for DDoS".  With
link queueing in the substrate, the attack is not just counted bytes: the
amplified replies crowd benign traffic off the victim's constrained
uplink.  We measure the victim's *benign goodput* during the attack,
with and without the `dns_guard` posture on the resolver fleet.

Setup: 4 Wemo-class open resolvers in the home; the victim sits behind a
5 kB/s drop-tail access link; a friend sends 200 B messages at 2/s on
the simulator's timer (``sim.every``); the attacker bounces 60 B spoofed
queries (8x amplification) off every resolver at 50 q/s each.

Expected shape: unprotected, reflected bytes exceed the link capacity and
benign delivery collapses; with the guard, zero reflected bytes and
benign delivery returns to ~100%.
"""

from __future__ import annotations

from _util import percent, print_table, record

from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices.library import smart_plug
from repro.netsim.node import Host
from repro.netsim.packet import Packet

N_RESOLVERS = 4
VICTIM_BANDWIDTH = 5_000.0   # bytes/second
ATTACK_SECONDS = 60.0
BENIGN_RATE = 2.0            # messages/second
BENIGN_SIZE = 200


def run_arm(protect: bool) -> dict:
    dep = SecuredDeployment.build()
    resolvers = [
        dep.add_device(smart_plug, f"wemo{i}") for i in range(N_RESOLVERS)
    ]
    attacker = dep.add_attacker()
    victim = Host("victim", dep.sim)
    dep.topology.add(victim)
    victim_link = dep.topology.connect(
        "edge", victim, latency=0.005, bandwidth=VICTIM_BANDWIDTH
    )
    victim_link.max_queue_delay = 0.5
    friend = Host("friend", dep.sim)
    dep.topology.add(friend)
    dep.topology.connect("edge", friend, latency=0.005)
    dep.finalize()

    if protect:
        for resolver in resolvers:
            dep.secure(
                resolver.name,
                build_recommended_posture(
                    "dns_guard",
                    resolver.name,
                    trusted_sources=(dep.HUB, dep.CONTROLLER),
                ),
            )
    dep.run(until=1.0)

    benign_sent = 0

    def send_benign() -> None:
        nonlocal benign_sent
        friend.send(
            Packet(
                src="friend", dst="victim", dport=7777,
                payload={"seq": 0}, size=BENIGN_SIZE,
            )
        )
        benign_sent += 1

    send_benign()
    dep.sim.every(1.0 / BENIGN_RATE, send_benign)

    for resolver in resolvers:
        EXPLOITS["dns_reflection_ddos"].launch(
            attacker,
            resolver.name,
            dep.sim,
            victim="victim",
            queries=int(50 * ATTACK_SECONDS),
            rate=50.0,
        )
    dep.run(until=ATTACK_SECONDS + 2.0)

    benign_received = sum(1 for p in victim.inbox if p.dport == 7777)
    attack_bytes = sum(p.size for p in victim.inbox if p.protocol == "dns")
    return {
        "arm": "dns_guard" if protect else "unprotected",
        "benign_sent": benign_sent,
        "benign_received": benign_received,
        "goodput": benign_received / max(1, benign_sent),
        "attack_bytes": attack_bytes,
        "link_queue_drops": victim_link.queue_drops,
        "guard_blocks": sum(
            1 for a in dep.alerts() if a.kind == "dns-reflection-blocked"
        ),
    }


def test_e10_reflection_crowds_out_benign_traffic(scenario_benchmark):
    def run_all():
        return [run_arm(False), run_arm(True)]

    results = scenario_benchmark(run_all)
    bare, guarded = results

    print_table(
        "E10: victim goodput under 4-resolver DNS reflection",
        [
            "Arm",
            "Benign delivered",
            "Goodput",
            "Reflected bytes at victim",
            "Link drop-tail drops",
            "Guard blocks",
        ],
        [
            (
                r["arm"],
                f"{r['benign_received']}/{r['benign_sent']}",
                percent(r["goodput"]),
                f"{r['attack_bytes']:,}",
                r["link_queue_drops"],
                r["guard_blocks"],
            )
            for r in results
        ],
    )
    record(scenario_benchmark, "arms", results)

    # unprotected: the link saturates, benign delivery collapses
    assert bare["attack_bytes"] > VICTIM_BANDWIDTH * ATTACK_SECONDS * 0.8
    assert bare["goodput"] < 0.5
    assert bare["link_queue_drops"] > 0
    # guarded: no reflected bytes, benign back to (near) full delivery
    assert guarded["attack_bytes"] == 0
    assert guarded["goodput"] > 0.95
    assert guarded["guard_blocks"] >= N_RESOLVERS  # every resolver shielded
