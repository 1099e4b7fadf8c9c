"""E16: the adversarial campaign corpus as a standing per-class scorecard.

E8 measured one end-to-end attack; the paper's claim needs *campaigns* --
multi-stage, cross-device, fabric-degrading attacks (ROADMAP open item
4).  This bench runs the full shipped corpus (19 campaigns, four classes)
against the standard protected home and rolls the per-campaign scorecards
into one per-class table:

- **detection precision/recall** -- alerted devices vs attacked devices;
- **time-to-containment / exposure window** -- first attack packet to the
  first enforcing posture, per expected-contained device;
- **graceful degradation** -- fail-open only where the posture allows it,
  fail-closed drops while a pinned chain's µmbox is down, re-pin after
  recovery;
- **SLO fold-in** -- a containment breach must surface as a
  ``campaign-containment`` burn-rate breach in the journal, never a
  silent miss.

Hard properties (mirrored by the regression gate): the *enforcing*
classes (single-flaw, lateral-movement, automation-abuse) end with zero
containment misses, and the fabric-degradation class produces real
degradation evidence -- sinkholed/bypassed packets at the compromised
switch plus outage/re-pin records -- while still containing by horizon.
"""

from __future__ import annotations

from _util import percent, print_table, record

from repro.faults.campaign import CAMPAIGN_CLASSES
from repro.faults.campaign_library import CAMPAIGNS, ENFORCING_CLASSES, run_class

#: Per-class detection recall floors.  Lateral movement is whole: every
#: foothold is alerted, and a pivot the launchpad's chain drops attacks no
#: victim.  Automation abuse holds today's 4 of 5: ``plug-unlock-chain``
#: switches the plug through its unsignatured 8080 port, and the hub's
#: ``welcome-unlock`` recipe does the rest with no alert against the
#: plug.  That is the trigger-action gap (a recipe whose trigger is
#: reachable without authentication needs a context gate on its action),
#: and its policy fix is still open.
RECALL_FLOORS = {"lateral-movement": 1.0, "automation-abuse": 0.8}


def run_scorecard() -> dict:
    """Run every shipped campaign; per-class rollups plus a corpus summary.

    This is the measurement the regression gate imports: sim-time only,
    fully seeded, so every field is machine-independent.
    """
    classes = {name: run_class(name) for name in CAMPAIGN_CLASSES}
    fabric = classes["fabric-degradation"]
    fabric_evidence = {
        "fabric_degraded": fabric["fabric_degraded"],
        "outages": sum(
            r["graceful_degradation"]["outages"] for r in fabric["results"]
        ),
        "repins": sum(r["repin_count"] for r in fabric["results"]),
        "routing_records": sum(
            r["routing_attack_records"] for r in fabric["results"]
        ),
        "containment_breaches": fabric["containment_breaches"],
    }
    summary = {
        "campaigns": sum(c["campaigns"] for c in classes.values()),
        "enforcing_misses": sorted(
            {
                m
                for name in ENFORCING_CLASSES
                for m in classes[name]["containment_misses"]
            }
        ),
        "all_misses": sorted(
            {m for c in classes.values() for m in c["containment_misses"]}
        ),
        "fabric_evidence": fabric_evidence,
    }
    return {"classes": classes, "summary": summary}


def compact(scorecard: dict) -> dict:
    """The gate/baseline view: per-class rollups without per-run payloads."""
    return {
        "classes": {
            name: {k: v for k, v in rollup.items() if k != "results"}
            for name, rollup in scorecard["classes"].items()
        },
        "summary": scorecard["summary"],
    }


def test_e16_campaign_scorecard(scenario_benchmark):
    scorecard = scenario_benchmark(run_scorecard)
    classes, summary = scorecard["classes"], scorecard["summary"]

    print_table(
        "E16: per-class campaign scorecard "
        f"({summary['campaigns']} campaigns, standard home)",
        ["Class", "Campaigns", "Recall", "Mean TTC", "Exposure", "Misses",
         "SLO breaches", "Graceful"],
        [
            (
                name,
                rollup["campaigns"],
                percent(rollup["recall"]),
                f"{rollup['mean_ttc_s']:.2f}s" if rollup["mean_ttc_s"] is not None else "-",
                f"{rollup['total_exposure_s']:.2f}s",
                ", ".join(rollup["containment_misses"]) or "none",
                rollup["containment_breaches"],
                "ok" if rollup["graceful_ok"] else "VIOLATED",
            )
            for name, rollup in classes.items()
        ],
    )
    record(scenario_benchmark, "scorecard", compact(scorecard))

    # The corpus itself: the issue's floor is 15 campaigns over 4 classes.
    assert len(CAMPAIGNS) >= 15
    assert all(classes[name]["campaigns"] >= 3 for name in CAMPAIGN_CLASSES)

    # Hard gate: enforcing classes fully contained, gracefully.
    assert summary["enforcing_misses"] == []
    for name in ENFORCING_CLASSES:
        assert classes[name]["graceful_ok"], name

    for name, floor in RECALL_FLOORS.items():
        assert classes[name]["recall"] >= floor, (name, classes[name]["recall"])

    # Fabric degradation is real (packets actually stolen, µmboxes actually
    # down and re-pinned) yet still contained by horizon -- and the one
    # campaign engineered to outlive its containment deadline surfaced as
    # a campaign-containment burn-rate breach, not a silent miss.
    evidence = summary["fabric_evidence"]
    assert evidence["fabric_degraded"]
    assert evidence["outages"] >= 1 and evidence["repins"] >= 1
    assert evidence["routing_records"] >= 2  # engage + disengage journaled
    assert evidence["containment_breaches"] >= 1
    assert classes["fabric-degradation"]["containment_misses"] == []
