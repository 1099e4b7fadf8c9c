"""E11 (extension): fleet immunity through real federation.

E3 models crowdsourcing's coverage race abstractly; this experiment runs
it for real.  Eight *actual* deployments share one simulator and one
signature repository.  Every site runs the same vulnerable camera SKU
behind a monitor posture with forensic capture.  An attacker sweeps the
fleet, one site every 30 seconds.

Site 0 falls -- no signature exists yet.  Its operator mines a signature
from the µmbox's packet capture (:mod:`repro.learning.traceminer`) and
publishes it.  The repository scrubs it, pushes it to every subscribed
site's live IDS, and every *later* site in the sweep shrugs the attack
off.  The no-sharing control arm loses the entire fleet.

Reported: per-site outcome timeline, time from first compromise to fleet
immunity, total sites lost per arm.
"""

from __future__ import annotations

from _util import print_table, record

from repro.attacks.attacker import Attacker
from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.devices.library import smart_camera
from repro.learning.repository import CrowdRepository
from repro.learning.traceminer import LabelledTrace, mine_and_publish
from repro.mboxes.elements import PacketLogger
from repro.netsim.simulator import Simulator
from repro.policy.posture import MboxSpec, Posture

N_SITES = 8
SWEEP_GAP = 30.0

FORENSIC_MONITOR = Posture.make(
    "forensic-monitor",
    MboxSpec.make("telemetry_tap"),
    MboxSpec.make("packet_logger", capture=True),
    MboxSpec.make("login_monitor"),
    MboxSpec.make("signature_ids", sku="dlink:DCS-930L:1.0", drop_on_match=True),
)


def run_fleet(share: bool) -> dict:
    sim = Simulator()
    repo = CrowdRepository(sim, free_rider_delay=5.0, base_delay=1.0)
    sites: list[SecuredDeployment] = []
    attackers: list[Attacker] = []
    for i in range(N_SITES):
        site = SecuredDeployment.build(sim=sim)
        site.add_device(smart_camera, "cam")
        attackers.append(site.add_attacker())
        site.finalize()
        if share:
            site.attach_repository(repo)
        site.secure("cam", FORENSIC_MONITOR)
        sites.append(site)

    results: list = [None] * N_SITES
    published = {"done": False}

    def attack(i: int) -> None:
        results[i] = EXPLOITS["default_credential_hijack"].launch(
            attackers[i], "cam", sim, resource="image"
        )

    def site0_responds() -> None:
        """Site 0's operator mines the capture and publishes (once)."""
        if published["done"] or not share:
            return
        mbox = sites[0].cluster.mboxes.get("cam")
        logger = next(
            (e for e in mbox.elements if isinstance(e, PacketLogger)), None
        )
        attack_packets = [
            p
            for p in (logger.captured if logger else [])
            if p.src == "attacker" and p.payload.get("action") == "login"
        ]
        benign_packets = [
            p for p in (logger.captured if logger else []) if p.src != "attacker"
        ]
        if not attack_packets:
            return
        mine_and_publish(
            repo,
            LabelledTrace.make(attack=attack_packets, benign=benign_packets),
            sku="dlink:DCS-930L:1.0",
            reporter="site-0-operator",
            flaw_class="exposed-credentials",
            recommended_posture="password_proxy",
        )
        published["done"] = True

    for i in range(N_SITES):
        sim.schedule(1.0 + i * SWEEP_GAP, attack, i)
    # site 0's incident response: ten seconds after its attack
    sim.schedule(11.0, site0_responds)
    sim.run(until=N_SITES * SWEEP_GAP + 60.0)

    outcomes = []
    for i, site in enumerate(sites):
        compromised = bool(attackers[i].loot_from("cam"))
        outcomes.append(
            {
                "site": i,
                "attacked_at": 1.0 + i * SWEEP_GAP,
                "compromised": compromised,
                "signature_hits": sum(
                    1
                    for a in site.alerts("cam")
                    if a.kind == "signature-match"
                ),
            }
        )
    return {
        "arm": "federated" if share else "isolated",
        "outcomes": outcomes,
        "lost": sum(1 for o in outcomes if o["compromised"]),
        "published": repo.version,
    }


def test_e11_fleet_immunity(scenario_benchmark):
    def run_all():
        return [run_fleet(share=False), run_fleet(share=True)]

    isolated, federated = scenario_benchmark(run_all)

    print_table(
        "E11: an attacker sweeps 8 identical sites (one every 30 s)",
        ["Site", "Attacked at (s)", "Isolated arm", "Federated arm", "IDS hits (fed.)"],
        [
            (
                i,
                int(iso["attacked_at"]),
                "COMPROMISED" if iso["compromised"] else "safe",
                "COMPROMISED" if fed["compromised"] else "safe",
                fed["signature_hits"],
            )
            for i, (iso, fed) in enumerate(
                zip(isolated["outcomes"], federated["outcomes"])
            )
        ],
    )
    print_table(
        "E11: summary",
        ["Arm", "Sites lost", "Signatures published"],
        [
            (isolated["arm"], f"{isolated['lost']}/{N_SITES}", isolated["published"]),
            (federated["arm"], f"{federated['lost']}/{N_SITES}", federated["published"]),
        ],
    )
    record(scenario_benchmark, "isolated_lost", isolated["lost"])
    record(scenario_benchmark, "federated_lost", federated["lost"])

    # isolated: every site falls to the same exploit
    assert isolated["lost"] == N_SITES
    # federated: only the first victim falls; everyone after is immune
    assert federated["outcomes"][0]["compromised"]
    assert federated["lost"] == 1
    for outcome in federated["outcomes"][1:]:
        assert not outcome["compromised"]
        assert outcome["signature_hits"] >= 1
