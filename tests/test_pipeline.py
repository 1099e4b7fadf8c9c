"""Tests for the staged reactive pipeline (repro.core.pipeline).

Covers the escalation engine's sliding-window edges and memory bound, and
the evaluate stage's same-instant coalescing guarantee: N simultaneous view
changes cost one evaluation round and at most one posture apply per
affected device.
"""

from repro.core.deployment import SecuredDeployment
from repro.core.pipeline import EscalationEngine, EscalationRule
from repro.devices.library import smart_camera, window_actuator
from repro.policy.builder import PolicyBuilder
from repro.policy.context import COMPROMISED, SUSPICIOUS
from repro.policy.posture import block_commands


# ----------------------------------------------------------------------
# Stage 2: escalation window edges
# ----------------------------------------------------------------------
class TestEscalationWindows:
    def test_alert_exactly_at_window_boundary_counts(self):
        engine = EscalationEngine([EscalationRule("probe", SUSPICIOUS, count=2, window=60.0)])
        assert engine.observe("cam", "probe", 0.0) is None
        # the alert at t=0 sits exactly at 60 - window: boundary-inclusive
        assert engine.observe("cam", "probe", 60.0) == SUSPICIOUS

    def test_alert_just_outside_window_does_not_count(self):
        engine = EscalationEngine([EscalationRule("probe", SUSPICIOUS, count=2, window=60.0)])
        assert engine.observe("cam", "probe", 0.0) is None
        assert engine.observe("cam", "probe", 60.5) is None

    def test_count_threshold_fires_on_nth_not_before(self):
        engine = EscalationEngine([EscalationRule("probe", SUSPICIOUS, count=3, window=60.0)])
        assert engine.observe("cam", "probe", 1.0) is None
        assert engine.observe("cam", "probe", 2.0) is None
        assert engine.observe("cam", "probe", 3.0) == SUSPICIOUS

    def test_interleaved_kinds_tracked_independently(self):
        engine = EscalationEngine(
            [
                EscalationRule("a", SUSPICIOUS, count=2, window=60.0),
                EscalationRule("b", COMPROMISED, count=2, window=60.0),
            ]
        )
        assert engine.observe("cam", "a", 0.0) is None
        assert engine.observe("cam", "b", 1.0) is None
        # neither kind has reached its own count yet, despite 2 alerts total
        assert engine.observe("cam", "a", 2.0) == SUSPICIOUS
        assert engine.observe("cam", "b", 3.0) == COMPROMISED

    def test_interleaved_devices_tracked_independently(self):
        engine = EscalationEngine([EscalationRule("a", SUSPICIOUS, count=2, window=60.0)])
        assert engine.observe("cam", "a", 0.0) is None
        assert engine.observe("plug", "a", 0.0) is None
        assert engine.observe("cam", "a", 1.0) == SUSPICIOUS

    def test_most_severe_triggered_rule_wins(self):
        engine = EscalationEngine(
            [
                EscalationRule("probe", SUSPICIOUS, count=1, window=60.0),
                EscalationRule("probe", COMPROMISED, count=3, window=60.0),
            ]
        )
        assert engine.observe("cam", "probe", 0.0) == SUSPICIOUS
        assert engine.observe("cam", "probe", 1.0) == SUSPICIOUS
        assert engine.observe("cam", "probe", 2.0) == COMPROMISED

    def test_alert_times_pruned_to_widest_window(self):
        engine = EscalationEngine(
            [
                EscalationRule("probe", SUSPICIOUS, count=3, window=10.0),
                EscalationRule("probe", COMPROMISED, count=50, window=60.0),
            ]
        )
        # A long slow stream: only the last 60 seconds (the widest window
        # for this kind) may ever be retained, no matter the run length.
        for i in range(10_000):
            engine.observe("cam", "probe", float(i))
        counts = engine.pending_counts()
        assert counts[("cam", "probe")] <= 61

    def test_boundary_timestamp_survives_pruning(self):
        engine = EscalationEngine([EscalationRule("probe", SUSPICIOUS, count=2, window=60.0)])
        engine.observe("cam", "probe", 0.0)
        engine.observe("cam", "probe", 60.0)
        # t=0 is exactly at the horizon (60 - 60) and must be retained
        assert engine.pending_counts()[("cam", "probe")] == 2


# ----------------------------------------------------------------------
# Stages 1+3+4: same-instant coalescing
# ----------------------------------------------------------------------
def _fan_in_deployment(n_cams: int = 4):
    """``win`` hardens when any of N cameras turns suspicious."""
    dep = SecuredDeployment.build()
    builder = PolicyBuilder()
    cams = [f"cam{i}" for i in range(n_cams)]
    for cam in cams:
        builder.device(cam)
    builder.device("win")
    for cam in cams:
        builder.when(f"ctx:{cam}", SUSPICIOUS).give("win", block_commands("open"))
    dep.policy = builder.build()
    for cam in cams:
        dep.add_device(smart_camera, cam)
    dep.add_device(window_actuator, "win")
    dep.finalize()
    return dep, cams


class TestSameInstantCoalescing:
    def test_simultaneous_view_changes_one_round_one_apply(self):
        dep, cams = _fan_in_deployment(n_cams=4)
        ctrl = dep.controller
        stats = ctrl.pipeline.stats
        rounds_before = stats.rounds
        applies_before = len(dep.sim.journal.entries(kind="posture", device="win"))
        # all four cameras turn suspicious at the same simulated instant
        for cam in cams:
            dep.sim.schedule(1.0, ctrl.set_context, cam, SUSPICIOUS)
        dep.run(until=2.0)
        assert dep.orchestrator.posture_of("win").name == "block-commands"
        win_applies = len(dep.sim.journal.entries(kind="posture", device="win"))
        assert win_applies - applies_before == 1
        assert stats.rounds - rounds_before == 1
        # three of the four same-instant marks were absorbed into the round
        assert stats.coalesced >= 3

    def test_coalesced_round_records_one_reaction_per_device(self):
        dep, cams = _fan_in_deployment(n_cams=3)
        ctrl = dep.controller
        before = len(ctrl.reactions)
        for cam in cams:
            dep.sim.schedule(1.0, ctrl.set_context, cam, SUSPICIOUS)
        dep.run(until=2.0)
        new = [r for r in ctrl.reactions[before:] if r.device == "win"]
        assert len(new) == 1
        record = new[0]
        assert record.trigger_at == 1.0
        assert record.applied_at >= record.trigger_at

    def test_changes_at_different_instants_run_separate_rounds(self):
        dep, cams = _fan_in_deployment(n_cams=2)
        ctrl = dep.controller
        stats = ctrl.pipeline.stats
        rounds_before = stats.rounds
        dep.sim.schedule(1.0, ctrl.set_context, cams[0], SUSPICIOUS)
        dep.sim.schedule(2.0, ctrl.set_context, cams[1], SUSPICIOUS)
        dep.run(until=3.0)
        assert stats.rounds - rounds_before == 2

    def test_direct_call_flushes_synchronously(self):
        dep, cams = _fan_in_deployment(n_cams=2)
        ctrl = dep.controller
        # outside the event loop the round must run inline: posture visible
        # immediately, with no sim.run() in between
        ctrl.set_context(cams[0], SUSPICIOUS)
        assert dep.orchestrator.posture_of("win").name == "block-commands"

    def test_unreferenced_keys_never_mark_devices(self):
        dep, __ = _fan_in_deployment(n_cams=2)
        stats = dep.controller.pipeline.stats
        ingested_before = stats.ingested
        dep.controller.view.set("dev:cam0", "recording")
        dep.controller.view.set("unrelated:key", "x")
        assert stats.ingested == ingested_before
