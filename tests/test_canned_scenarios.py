"""Every canned scenario is a home, a fault plan and a campaign.

Each case arms, runs and measures one scenario of ``repro.faults.scenario``
and holds it to ``fixtures/canned_scenarios.json`` -- result dicts recorded
on the tree *before* the attacks became campaigns (waves armed by hand,
exploits launched before the clock started).  Two things legitimately
moved and are stated here, not in the fixture:

- an attack that used to be launched before the clock started (health plan
  ``none``, the attacked home) is now a stage that fires at t=0: exactly
  one more event;
- the campaign takes the run's first trace id, so the trace ids carried by
  journaled SLO breaches are one higher.

Each case also carries ``journal_masked_sha256``: the digest of its whole
journal with the rule counts of every ``epoch-commit`` left out (see
``tests/test_hot_path_equivalence.py``), recorded on the tree whose
two-phase epochs still re-pushed the whole table.  A change to what an
epoch carries must leave it byte for byte.  ``rules_installed`` (E12/E13:
flow rules summed over the run's epochs) is the one key recorded later,
with the epochs scoped to the devices they change; it is what such a
change is *supposed* to move.
"""

import copy
import json
from functools import partial
from pathlib import Path

import pytest

from repro.core.metrics import summarize
from repro.faults.campaign import journal_digest, score_campaign
from repro.faults.scenario import (
    HEALTH_SCENARIOS,
    arm_attacked_home,
    arm_failover,
    arm_health,
    arm_resilience,
    arm_storm,
    measure_failover,
    measure_health,
    measure_resilience,
    measure_storm,
)
from tests import test_hot_path_equivalence as hot_path

GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "canned_scenarios.json").read_text())
LOSSY = {"drop_prob": 0.1, "jitter": 0.01}


def measure_attacked_home(dep, runner):
    assert dep.orchestrator.offload_violations() == []
    return {"events": dep.sim.events_processed, "report": summarize(dep).render()}


def _cases():
    yield "attacked", arm_attacked_home, measure_attacked_home
    for seed in (7, 11):
        for arm, on in (("baseline", False), ("resilient", True)):
            key = f"e12/{arm}/seed{seed}"
            yield key, partial(arm_resilience, on, seed=seed), measure_resilience
            yield f"{key}/lossy", partial(arm_resilience, on, seed=seed, **LOSSY), measure_resilience
        for arm, on in (("crash", False), ("standby", True)):
            yield f"e13a/{arm}/seed{seed}", partial(arm_failover, on, seed), measure_failover
        for arm, on in (("fifo", False), ("shed", True)):
            yield f"e13b/{arm}/seed{seed}", partial(arm_storm, on, seed), measure_storm
        for plan in HEALTH_SCENARIOS:
            yield f"health/{plan}/seed{seed}", partial(arm_health, plan, seed), measure_health


CASES = {key: (arm, measure) for key, arm, measure in _cases()}
SEED7 = sorted(key for key in CASES if key == "attacked" or key.endswith("seed7"))


def expected(key):
    want = copy.deepcopy(GOLDEN[key])
    want.pop("plan", None)  # the caller's argument, not a measurement
    want.pop("journal_masked_sha256")  # held to the journal, not to the result
    if key == "attacked" or key.startswith("health/none"):
        want["events"] += 1
    for entry in want.get("breach_events", []) + want.get("recovery_events", []):
        entry["trace"] += 1
    return want


def run(key, slices=1):
    arm, measure = CASES[key]
    dep, runner = arm()
    horizon = runner.campaign.horizon
    for i in range(1, slices + 1):
        dep.run(until=horizon * i / slices)
    return dep, runner, measure(dep, runner)


def test_the_fixture_covers_exactly_the_cases():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_result_equals_the_pre_campaign_golden(key):
    dep, runner, result = run(key)
    assert result == expected(key)
    assert hot_path.journal_digest(dep.sim, mask_epoch_sizes=True) == GOLDEN[key]["journal_masked_sha256"]
    if key.startswith("e12") and result["cam_reenforce_s"] is not None:
        # The scorecard and the scenario agree on the camera's window.
        assert score_campaign(dep, runner)["exposure_s"]["cam"] == result["cam_reenforce_s"]


@pytest.mark.parametrize("key", SEED7)
def test_journal_names_the_campaign_and_slicing_changes_nothing(key):
    dep, runner, result = run(key)
    journal = dep.sim.journal
    (start,) = journal.entries(kind="campaign-start")
    stages = journal.entries(kind="campaign-stage")
    assert start.fields["campaign"] == runner.campaign.name
    assert [e.fields["stage"] for e in stages] == sorted(
        (s.name for s in runner.campaign), key=lambda name: runner.results[name].fired_at
    )
    assert all(e.fields["status"] == "ok" for e in stages)
    assert runner.trace_id is not None
    assert {e.trace_id for e in [start, *stages]} == {runner.trace_id}

    sliced_dep, __, sliced = run(key, slices=8)
    assert sliced == result
    assert sliced_dep.sim.events_processed == dep.sim.events_processed
    assert journal_digest(sliced_dep.sim.journal) == journal_digest(journal)


@pytest.mark.parametrize(
    "key", ["e12/resilient/seed7", "e13a/standby/seed7", "e13b/shed/seed7", "health/none/seed7"]
)
def test_measuring_checks_the_offload_invariant(key, monkeypatch):
    arm, measure = CASES[key]
    dep, runner = arm()
    dep.run(until=runner.campaign.horizon)
    monkeypatch.setattr(dep.orchestrator, "offload_violations", lambda: ["edge: stray 700 rule"])
    with pytest.raises(AssertionError, match="stray 700 rule"):
        measure(dep, runner)
