"""Causal traces read back from seeded runs.

Every span a seeded scenario's traces hold at the end of its run, as
``(trace id, stage, start, end, device)``, is pinned in
``tests/fixtures/trace_spans.json``.  Each scenario runs with a journal
ring large enough to keep the whole run, so the pin is every span the run
produced.  The scenarios cover each stage kind: the attacked home behind
``repro trace``, the E9 home in miniature, the E12 chaos and E13 failover
arms, a cross-device chain in direct mode (``flow-install``) and under
two-phase consistent updates (``epoch-commit``), two chains that one
flow push closes (in both modes), an insider escalation from a pivot, an SLO breach and recovery, and a lateral-movement library campaign.

Re-record (only after an *intentional* behavior change) with::

    REPRO_RECORD_FIXTURES=1 PYTHONPATH=src python -m pytest \
        tests/test_trace_view.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices.library import smart_camera, window_actuator
from repro.faults.campaign_library import CAMPAIGNS, arm_campaign
from repro.faults.scenario import (
    arm_attacked_home,
    arm_failover,
    arm_health,
    arm_resilience,
    horizon_of,
)
from repro.obs.incident import reconstruct
from repro.obs.journal import Journal
from repro.obs.trace import Tracer
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS
from repro.policy.posture import block_commands
from tests.test_hot_path_equivalence import build_e9_small
from tests.test_lateral_movement import build as build_pivot
from tests.test_lateral_movement import launch as launch_pivot
from tests.test_obs_integration import _brute_force, _cross_device_deployment

FIXTURE_PATH = Path(__file__).resolve().parent / "fixtures" / "trace_spans.json"
RECORDING = bool(os.environ.get("REPRO_RECORD_FIXTURES"))


def _unbounded(dep):
    """Keep the whole run: the pin is every span, not the ring's tail."""
    dep.sim.journal.max_segments = 10**9
    return dep


def _armed(armed):
    dep = _unbounded(armed[0])
    dep.run(until=horizon_of(armed))
    return dep


def _e9_small():
    dep = _unbounded(build_e9_small(12)[0])
    dep.run(until=240.0)
    return dep


def _chain(**build_kwargs):
    dep, __ = _cross_device_deployment(**build_kwargs)
    _unbounded(dep)
    dep.secure(
        "cam0", build_recommended_posture("password_proxy", "cam0", new_password="S3c!")
    )
    _brute_force(dep, "cam0", n=3)
    dep.run(until=30.0)
    return dep


def _shared_push(**build_kwargs):
    """Two cameras turn suspicious at the same instant and harden two
    windows in one round: one flow push closes both chains."""
    dep = _unbounded(SecuredDeployment.build(**build_kwargs))
    builder = PolicyBuilder()
    for name in ("cam0", "cam1", "win0", "win1"):
        builder.device(name)
    for i in (0, 1):
        builder.when(f"ctx:cam{i}", SUSPICIOUS).give(f"win{i}", block_commands("open"))
    dep.policy = builder.build()
    for i in (0, 1):
        dep.add_device(smart_camera, f"cam{i}")
        dep.add_device(window_actuator, f"win{i}")
    dep.add_attacker()
    dep.finalize()
    for cam in ("cam0", "cam1"):
        dep.secure(cam, build_recommended_posture("password_proxy", cam, new_password="S3c!"))
        _brute_force(dep, cam, n=3)
    dep.run(until=30.0)
    return dep


def _insider_pivot():
    dep, attacker = build_pivot(protect_victim=True)
    _unbounded(dep)
    launch_pivot(dep, attacker)
    dep.run(until=10.0)
    return dep


SCENARIOS = {
    "attacked_home": lambda: _armed(arm_attacked_home()),
    "e9_small": _e9_small,
    "e12_resilient": lambda: _armed(arm_resilience(resilient=True, seed=7)),
    "e13_standby": lambda: _armed(arm_failover(standby=True, seed=7)),
    "consistent_chain": lambda: _chain(consistent_updates=True),
    "direct_chain": _chain,
    "insider_pivot": _insider_pivot,
    "shared_push_direct": _shared_push,
    "shared_push_consistent": lambda: _shared_push(consistent_updates=True),
    "slo_breach_recover": lambda: _armed(arm_health("controller")),
    "campaign_plug_pivot_lock": lambda: _armed(
        arm_campaign(CAMPAIGNS["plug-pivot-lock"], seed=1)
    ),
}


def span_rows(tracer) -> list[list]:
    """Every span of every trace, as sorted ``[trace, stage, start, end, device]``."""
    return sorted(
        [trace_id, span.stage, span.start, span.end, span.device]
        for trace_id in tracer.trace_ids()
        for span in tracer.spans(trace_id)
    )


def _one_row_a_line(fixture: dict) -> str:
    blocks = [
        f"{json.dumps(name)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in sorted(fixture.items())
    ]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_spans_match_fixture(name):
    rows = span_rows(SCENARIOS[name]().sim.tracer)
    if RECORDING:
        fixture = json.loads(FIXTURE_PATH.read_text()) if FIXTURE_PATH.exists() else {}
        fixture[name] = rows
        FIXTURE_PATH.write_text(_one_row_a_line(fixture))
        return
    expected = json.loads(FIXTURE_PATH.read_text())[name]
    assert rows, f"{name}: the run produced no spans"
    assert rows == expected


def test_chain_whose_opening_records_were_evicted_is_marked():
    """A tiny ring evicts the chain's alert and alert-ingest while its
    posture record survives: the view serves the tail and says so."""
    dep, __ = _cross_device_deployment()
    dep.sim.journal.segment_size = 4
    dep.sim.journal.max_segments = 2
    dep.secure(
        "cam0", build_recommended_posture("password_proxy", "cam0", new_password="S3c!")
    )
    _brute_force(dep, "cam0", n=3)
    dep.run(until=30.0)
    tracer = dep.sim.tracer
    trace = tracer.last_trace("win")
    assert trace is not None
    stages = [span.stage for span in tracer.spans(trace)]
    assert "actuate" in stages and "detect" not in stages
    assert tracer.evicted(trace)
    assert "(opening records evicted)" in tracer.render(trace)
    (chain,) = [c for c in reconstruct(dep.sim, "win").chains if c.trace_id == trace]
    assert chain.evicted and "opening records evicted" in reconstruct(dep.sim, "win").render()


def test_whole_chain_is_not_marked():
    tracer = _chain().sim.tracer
    trace = tracer.last_trace("win")
    assert tracer.spans(trace)[0].stage == "detect"
    assert not tracer.evicted(trace)
    assert "evicted" not in tracer.render(trace)


# ----------------------------------------------------------------------
# The incremental view against a fresh one
# ----------------------------------------------------------------------
#: Every kind ``_spans_of`` derives a span from, an opener that derives
#: none (``campaign-start``), and two kinds the view never reads.
VIEW_KINDS = (
    "alert",
    "alert-ingest",
    "escalation",
    "posture",
    "flow-install",
    "epoch-commit",
    "failover",
    "failover-complete",
    "slo-breach",
    "slo-recover",
    "campaign-start",
    "campaign-stage",
    "mbox-drop",
    "reconfigure",
)
IDS = range(1, 9)

_times = st.integers(0, 400).map(lambda n: n / 4)
_fields = st.fixed_dictionaries(
    {},
    optional={
        "started": _times,
        "sent_at": _times,
        "ready_at": _times,
        "duration": _times,
        "last_heartbeat": _times,
        "alert_kind": st.sampled_from(["insider", "login-rejected"]),
    },
)
_trace = st.one_of(
    st.none(),
    st.sampled_from(IDS),
    st.lists(st.sampled_from(IDS), min_size=1, max_size=3).map(tuple),
)
_record = st.tuples(
    st.just("record"), st.sampled_from(VIEW_KINDS), st.sampled_from(["", "cam", "win"]),
    _trace, _fields, _times,
)
_read = st.tuples(st.sampled_from(["trace_ids", "spans", "evicted"]), st.sampled_from(IDS))


def _retained_ids(journal) -> list[int]:
    """The trace ids the ring still holds a record of, ascending."""
    ids = set()
    for entry in journal:
        trace = entry.trace_id
        if trace is not None:
            ids.update(trace if isinstance(trace, tuple) else (trace,))
    return sorted(ids)


def _assert_matches_fresh(tracer, journal) -> None:
    """The incremental view reads what a tracer indexing the ring from
    scratch reads, and lists ids ascending."""
    fresh = Tracer()
    fresh.journal = journal
    assert tracer.trace_ids() == fresh.trace_ids() == _retained_ids(journal)
    for trace_id in IDS:
        assert tracer.spans(trace_id) == fresh.spans(trace_id)
        assert tracer.evicted(trace_id) == fresh.evicted(trace_id)


def _replay(segment_size: int, max_segments: int, ops) -> None:
    now = [0.0]
    journal = Journal(clock=lambda: now[0], segment_size=segment_size, max_segments=max_segments)
    tracer = Tracer()
    tracer.journal = journal
    for op in ops:
        if op[0] == "record":
            __, kind, device, trace, fields, dt = op
            now[0] += dt
            journal.record(kind, device=device, trace=trace, **fields)
            continue
        read, trace_id = op
        if read == "trace_ids":
            tracer.trace_ids()
        else:
            getattr(tracer, read)(trace_id)
        _assert_matches_fresh(tracer, journal)
    _assert_matches_fresh(tracer, journal)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(1, 4),
    st.lists(st.one_of(_record, _record, _read), max_size=60),
)
def test_incremental_view_equals_a_fresh_one(segment_size, max_segments, ops):
    """Random interleavings of records and reads on a small ring: after
    every read the view equals a fresh tracer bound to the same journal."""
    _replay(segment_size, max_segments, ops)


def _alert(trace, t=1.0):
    return ("record", "alert", "cam", trace, {"started": t}, 1.0)


def test_ids_journaled_out_of_order_and_a_trace_back_after_full_eviction():
    """Id 5 is journaled before 2, and 2 comes back once the ring has
    evicted every record of it, behind the still-retained 7."""
    untraced = ("record", "mbox-drop", "cam", None, {}, 1.0)
    _replay(
        2,
        2,
        [
            _alert(5),
            _alert(2),
            ("trace_ids", 1),
            _alert(7),
            ("trace_ids", 1),
            untraced,
            untraced,
            ("trace_ids", 1),  # 5 and 2 are gone; 7 stays
            _alert(2),
            ("spans", 2),
            _alert((3, 7)),
            ("evicted", 3),
        ],
    )
