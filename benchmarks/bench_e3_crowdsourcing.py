"""E3: crowdsourced signatures vs honeypots; poisoning resistance.

Section 4: "learning signatures using simple honeypot-like mechanisms will
not scale with the diversity of devices ... we would need several thousand
honeypots to ensure coverage for every specific device SKU."
Section 4.1 proposes the crowdsourced repository with reputation/voting.

Part A -- coverage race.  A universe of SKUs with Zipf-like deployment
popularity; attack campaigns sweep SKUs over time.  Both arms are a
``CrowdRepository`` and read coverage from ``covered_skus()``.  The
honeypot farm emulates the N most popular SKUs: a campaign that touches an
emulated SKU publishes to the farm's repository after an hour of analysis.
The crowdsourced repository has every *deployment* of the SKU as a sensor:
the first victim site publishes at once.  Expected shape: crowdsourcing
tracks the attack frontier closely and reaches full coverage; honeypots
plateau at their emulation budget and never cover tail SKUs.

Part B -- poisoning.  A fraction of publishers submit bogus signatures
(e.g. "block all port-80 traffic").  Arms: repository with voting/
reputation vs without.  Expected: reputation suppresses nearly all bogus
distribution while preserving genuine coverage.
"""

from __future__ import annotations

import random

from _util import percent, print_table, record

from repro.learning.repository import CrowdRepository
from repro.learning.reputation import ReputationSystem
from repro.learning.signatures import AttackSignature, SignatureMatch
from repro.netsim.simulator import Simulator


def make_universe(n_skus: int, rng: random.Random) -> dict[str, int]:
    """SKU -> deployed population, Zipf-ish."""
    return {
        f"vendor{i % 40}:model{i}:v{1 + i % 3}": max(1, int(50_000 / (i + 1)))
        for i in range(n_skus)
    }


def signature_for(sku: str, bogus: bool = False) -> AttackSignature:
    if bogus:
        match = SignatureMatch.make(dport=80)  # would block all web traffic
        posture = "quarantine"
    else:
        match = SignatureMatch.make(
            protocol="http", dport=80, payload_contains={"action": "login"}
        )
        posture = "password_proxy"
    return AttackSignature(
        sku=sku, flaw_class="exposed-credentials", match=match,
        recommended_posture=posture,
    )


def coverage_race(n_skus: int, n_honeypots: int, horizon: float, seed: int) -> dict:
    rng = random.Random(seed)
    sim = Simulator()
    universe = make_universe(n_skus, rng)
    # The rational farm operator emulates the n most-deployed SKUs.
    by_popularity = sorted(universe, key=lambda sku: (-universe[sku], sku))
    emulated = set(by_popularity[:n_honeypots])
    farm = CrowdRepository(sim)
    repo = CrowdRepository(sim, free_rider_delay=300.0)

    # Campaign arrival: popular SKUs attacked sooner and more often.
    skus = sorted(universe, key=universe.get, reverse=True)
    curve_crowd: list[tuple[float, float]] = []
    curve_honey: list[tuple[float, float]] = []
    for i, sku in enumerate(skus):
        at = rng.uniform(0, horizon) * (0.2 + 0.8 * i / len(skus))

        def campaign(sku=sku) -> None:
            if sku in emulated:  # the honeypot's analysis takes an hour
                sim.schedule(3600.0, farm.publish, signature_for(sku), f"honeypot-{sku}")
            # some victim site that deployed the SKU observes + publishes
            repo.publish(signature_for(sku), reporter=f"site-of-{sku}")

        sim.schedule(at, campaign)
    sample_every = horizon / 20

    def sample() -> None:
        curve_crowd.append((sim.now, len(repo.covered_skus()) / n_skus))
        curve_honey.append((sim.now, len(farm.covered_skus()) / n_skus))

    sim.every(sample_every, sample)
    sim.run(until=horizon)
    return {
        "skus": n_skus,
        "honeypots": n_honeypots,
        "crowd_final": curve_crowd[-1][1],
        "honey_final": curve_honey[-1][1],
        "crowd_half_time": next(
            (t for t, c in curve_crowd if c >= 0.5), float("inf")
        ),
        "honey_half_time": next(
            (t for t, c in curve_honey if c >= 0.5), float("inf")
        ),
        "curve_crowd": curve_crowd,
        "curve_honey": curve_honey,
    }


def poisoning(n_good: int, n_bogus: int, with_reputation: bool, seed: int) -> dict:
    rng = random.Random(seed)
    sim = Simulator()
    reputation = ReputationSystem(accept_threshold=0.4 if with_reputation else 0.0)
    repo = CrowdRepository(sim, reputation=reputation)
    delivered = {"good": 0, "bogus": 0}

    def on_signature(signature: AttackSignature) -> None:
        if signature.recommended_posture == "quarantine":
            delivered["bogus"] += 1
        else:
            delivered["good"] += 1

    for i in range(50):
        repo.subscribe(f"subscriber-{i}", f"sku-{i}", on_signature)

    publications = []
    for i in range(n_good):
        publications.append((f"sku-{rng.randrange(50)}", False, f"good-site-{i % 20}"))
    for i in range(n_bogus):
        publications.append((f"sku-{rng.randrange(50)}", True, f"poisoner-{i % 5}"))
    rng.shuffle(publications)

    for step, (sku, bogus, reporter) in enumerate(publications):
        def publish(sku=sku, bogus=bogus, reporter=reporter) -> None:
            sig_id = repo.publish(signature_for(sku, bogus=bogus), reporter=reporter)
            if sig_id is None:
                return
            if with_reputation:
                # subscribers vet what they receive: bogus signatures break
                # their own traffic and collect down-votes; good ones help.
                for v in range(3):
                    repo.vote(sig_id, f"validator-{v}", helpful=not bogus)

        sim.schedule(1.0 + step, publish)
    sim.run()
    stats = repo.stats()
    return {
        "with_reputation": with_reputation,
        "good_delivered": delivered["good"],
        "bogus_delivered": delivered["bogus"],
        "withheld": stats["withheld"],
        "revoked": stats["revoked"],
    }


def test_e3_crowdsourcing_vs_honeypots(scenario_benchmark):
    def run_all():
        race = coverage_race(n_skus=400, n_honeypots=40, horizon=86_400.0, seed=7)
        poison_with = poisoning(n_good=120, n_bogus=40, with_reputation=True, seed=3)
        poison_without = poisoning(n_good=120, n_bogus=40, with_reputation=False, seed=3)
        return race, poison_with, poison_without

    race, poison_with, poison_without = scenario_benchmark(run_all)

    print_table(
        "E3a: SKU signature coverage after one day of campaigns",
        ["Arm", "Final coverage", "Time to 50%"],
        [
            (
                f"crowdsourced ({race['skus']} deployments as sensors)",
                percent(race["crowd_final"]),
                f"{race['crowd_half_time'] / 3600:.1f} h",
            ),
            (
                f"honeypot farm ({race['honeypots']} per-SKU honeypots)",
                percent(race["honey_final"]),
                f"{race['honey_half_time'] / 3600:.1f} h"
                if race["honey_half_time"] != float("inf")
                else "never",
            ),
        ],
    )
    print_table(
        "E3b: poisoning (40 bogus / 120 genuine publications)",
        ["Arm", "Genuine delivered", "Bogus delivered", "Withheld", "Revoked"],
        [
            (
                "with reputation+voting",
                poison_with["good_delivered"],
                poison_with["bogus_delivered"],
                poison_with["withheld"],
                poison_with["revoked"],
            ),
            (
                "without",
                poison_without["good_delivered"],
                poison_without["bogus_delivered"],
                poison_without["withheld"],
                poison_without["revoked"],
            ),
        ],
    )
    record(scenario_benchmark, "race", {k: v for k, v in race.items() if "curve" not in k})
    record(scenario_benchmark, "poison_with", poison_with)
    record(scenario_benchmark, "poison_without", poison_without)

    # Shapes: crowdsourcing covers (nearly) everything; honeypots plateau
    # at their emulation budget.
    assert race["crowd_final"] > 0.9
    assert race["honey_final"] <= race["honeypots"] / race["skus"] + 0.01
    assert race["crowd_final"] > race["honey_final"] * 4
    # Reputation suppresses most bogus deliveries without losing coverage.
    assert poison_without["bogus_delivered"] > 0
    assert poison_with["bogus_delivered"] < poison_without["bogus_delivered"] / 2
    assert poison_with["good_delivered"] >= poison_without["good_delivered"] * 0.8
