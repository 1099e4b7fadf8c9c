"""Hot-path refactor equivalence: seeded runs must not change behavior.

The data-plane refactor (slotted packets, list heap entries, buffered
journal segments, dispatch-table loops) is wall-clock-only by contract:
a seeded run must schedule the same events, produce the same journal
entries, and land on the same deterministic counters as it did before the
refactor.  These tests pin that contract against fixtures recorded on the
pre-refactor tree (``tests/fixtures/hot_path_equivalence.json``).

Three seeded scenarios are pinned:

- **e9-small** -- a fully-tunnelled 12-device home with telemetry and an
  attack sweep (the E9 hot path in miniature);
- **e12-resilient** -- the standard chaos scenario's resilient arm
  (partitions, retries, µmbox crash/reboot);
- **e13-standby** -- the hot-standby failover arm (checkpoints,
  replication, takeover).

Each scenario is reduced to a sha256 digest over every retained journal
entry plus a handful of deterministic counters.  The two consistent-mode
scenarios (e12, e13) carry a second digest, ``journal_masked_sha256``,
that leaves out how many rules each ``epoch-commit`` installed and
removed: what an epoch *carries* is the updater's business and may be
re-recorded with it; when, why and in what order epochs commit may not
move with it, and the masked digest is what says so.  e9-small additionally
pins what the journal cannot see (``state``): view deltas are not
journaled, so the tap -> channel -> controller -> view leg and the
per-hop counters are digested from the objects themselves.
Re-record (only after an *intentional* behavior change) with::

    REPRO_RECORD_FIXTURES=1 PYTHONPATH=src python -m pytest \
        tests/test_hot_path_equivalence.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults.scenario import (
    arm_failover,
    arm_resilience,
    e9_spec,
    launch_e9_attacks,
    measure_failover,
    measure_resilience,
)

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "hot_path_equivalence.json"
RECORDING = bool(os.environ.get("REPRO_RECORD_FIXTURES"))


# Journal fields backed by process-global allocation counters (packet ids,
# control-message ids).  They depend on what else ran earlier in the same
# interpreter, not on the seeded scenario, so the digest must ignore them.
_ALLOCATION_ID_FIELDS = frozenset({"pkt", "msg"})

# The size of a two-phase epoch: a function of how much of the table the
# updater re-pushes per change, not of what the deployment decided.
_EPOCH_SIZE_FIELDS = frozenset({"rules_installed", "rules_removed"})


def journal_digest(sim, mask_epoch_sizes: bool = False) -> str:
    """sha256 over every retained journal entry, in canonical JSON form;
    ``mask_epoch_sizes`` also drops an ``epoch-commit``'s rule counts."""
    h = hashlib.sha256()
    for entry in sim.journal:
        d = entry.as_dict()
        fields = d.get("fields")
        ignored = _ALLOCATION_ID_FIELDS
        if mask_epoch_sizes and d["kind"] == "epoch-commit":
            ignored = ignored | _EPOCH_SIZE_FIELDS
        if fields and not ignored.isdisjoint(fields):
            d["fields"] = {k: v for k, v in fields.items() if k not in ignored}
        h.update(json.dumps(d, sort_keys=True, default=str).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def unjournaled_state(dep, attacker) -> dict:
    """What the conforming-traffic path leaves behind outside the journal.

    Process-global ids (alert, packet ids) are left out for the same
    reason :func:`journal_digest` drops them.
    """
    view = dep.controller.view
    cluster, edge = dep.cluster, dep.edge
    end_hosts = [*dep.devices.values(), dep.hub, attacker]
    return {
        "view_sha256": _digest(view.snapshot()),
        "view_history_sha256": _digest(
            {k: [e.value, e.updated_at, e.updates] for k, e in view.entries.items()}
        ),
        "view_total_updates": view.total_updates,
        "controller_alerts_by_kind": {
            c.labels["kind"]: int(c.value)
            for c in dep.sim.metrics.series("controller_alerts")
        },
        "edge_punted": edge.punted,
        "cluster_tunnelled_in": cluster.tunnelled_in,
        "cluster_returned": cluster.returned,
        "cluster_alerts_by_kind": dict(Counter(a.kind for a in cluster.alerts)),
        "cluster_alerts_sha256": _digest(
            [[a.at, a.mbox, a.device, a.kind, a.detail, a.trace_id] for a in cluster.alerts]
        ),
        "channel_undeliverable": dep.channel.undeliverable,
        "end_host_io": {
            field: sum(getattr(node, field) for node in end_hosts)
            for field in ("rx_count", "tx_count", "rx_bytes", "tx_bytes")
        },
        "edge_rule_hits": sum(rule.hits for rule in edge.flow_table),
        "edge_rule_hit_bytes": sum(rule.hit_bytes for rule in edge.flow_table),
    }


def build_e9_small(n_devices: int = 12, telemetry_period: float = 20.0, **planes):
    """The E9 home in miniature: reporting devices under E9's posture mix
    and its two opening attacks (``planes``: ``SiteSpec`` fields).
    Returns ``(deployment, attacker)``."""
    dep = replace(e9_spec(n_devices, telemetry_period), **planes).deploy()
    launch_e9_attacks(dep)
    return dep, dep.attackers["attacker"]


def run_e9_small(n_devices: int = 12, until: float = 240.0) -> dict:
    """The E9 hot path in miniature: tunnelled devices, telemetry, attacks."""
    dep, attacker = build_e9_small(n_devices)
    dep.run(until=until)
    assert dep.orchestrator.offload_violations() == []

    stats = dep.controller.pipeline.stats
    channel = dep.channel
    return {
        "journal_sha256": journal_digest(dep.sim),
        "counters": {
            "events_processed": dep.sim.events_processed,
            "journal_recorded": dep.sim.journal.recorded,
            "journal_retained": len(dep.sim.journal),
            "pipeline_ingested": stats.ingested,
            "pipeline_rounds": stats.rounds,
            "pipeline_evaluations": stats.evaluations,
            "pipeline_applies": stats.applies,
            "channel_sent": channel.sent,
            "channel_delivered": channel.delivered,
            "compromised": sum(
                1 for d in dep.devices.values() if d.is_compromised()
            ),
        },
        "state": unjournaled_state(dep, attacker),
    }


def run_e12_resilient() -> dict:
    dep, runner = arm_resilience(resilient=True, seed=7)
    dep.run(until=runner.campaign.horizon)
    row = measure_resilience(dep, runner)  # checks offload_violations() == []
    return {
        "journal_sha256": journal_digest(dep.sim),
        "journal_masked_sha256": journal_digest(dep.sim, mask_epoch_sizes=True),
        "counters": {
            "events_processed": dep.sim.events_processed,
            "journal_recorded": dep.sim.journal.recorded,
            "attack_attempts": row["attack_attempts"],
            "attack_successes": row["attack_successes"],
            "exposure_s": row["exposure_s"],
            "ctrl_drops": row["ctrl_drops"],
            "ctrl_retries": row["ctrl_retries"],
            "ctrl_unacked": row["ctrl_unacked"],
            "mbox_restarts": row["mbox_restarts"],
        },
    }


def run_e13_standby() -> dict:
    dep, runner = arm_failover(standby=True, seed=7)
    dep.run(until=runner.campaign.horizon)
    row = measure_failover(dep, runner)  # checks offload_violations() == []
    return {
        "journal_sha256": journal_digest(dep.sim),
        "journal_masked_sha256": journal_digest(dep.sim, mask_epoch_sizes=True),
        "counters": {
            "events_processed": dep.sim.events_processed,
            "journal_recorded": dep.sim.journal.recorded,
            "attack_attempts": row["attack_attempts"],
            "blind_window_s": row["blind_window_s"],
            "failovers": row["failovers"],
            "replayed": row["replayed"],
            "ctrl_unacked": row["ctrl_unacked"],
        },
    }


SCENARIOS = {
    "e9_small": run_e9_small,
    "e12_resilient": run_e12_resilient,
    "e13_standby": run_e13_standby,
}


def _load_fixture() -> dict:
    if not FIXTURE_PATH.exists():
        pytest.fail(
            f"missing fixture {FIXTURE_PATH}; record it with "
            "REPRO_RECORD_FIXTURES=1 (on a tree whose behavior is the "
            "intended reference)"
        )
    return json.loads(FIXTURE_PATH.read_text())


def _record(name: str, result: dict) -> None:
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    fixture = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else {}
    fixture[name] = result
    FIXTURE_PATH.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_seeded_run_matches_pre_refactor_fixture(name):
    result = SCENARIOS[name]()
    if RECORDING:
        _record(name, result)
        return
    expected = _load_fixture()[name]
    assert result["counters"] == expected["counters"], (
        f"{name}: deterministic counters drifted -- the refactor changed "
        "behavior, not just speed"
    )
    assert result["journal_sha256"] == expected["journal_sha256"], (
        f"{name}: journal digest changed -- the flight recorder saw a "
        "different history than the pre-refactor tree"
    )
    assert result.get("journal_masked_sha256") == expected.get("journal_masked_sha256"), (
        f"{name}: the journal moved in more than the size of its epochs"
    )
    assert result.get("state") == expected.get("state"), (
        f"{name}: unjournaled state drifted -- views, counters or alerts the "
        "journal does not record differ from the pre-refactor tree"
    )


def test_seeded_run_is_self_deterministic():
    """Two identical seeded runs in one process agree exactly -- the
    precondition for cross-commit digest pinning to mean anything."""
    a = run_e9_small(n_devices=6, until=120.0)
    b = run_e9_small(n_devices=6, until=120.0)
    assert a["counters"] == b["counters"]
    assert a["journal_sha256"] == b["journal_sha256"]
    assert a["state"] == b["state"]
