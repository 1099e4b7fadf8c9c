"""Tests for controller survivability: checkpoint/restore and failover.

The contract under test:

- a checkpoint is a *deterministic* snapshot: the same seeded run always
  produces the same content digest, and a digest mismatch means the
  security state actually differs;
- restore + journal-tail replay reconstructs exactly the state the
  crashed controller held (view, escalation windows, postures) -- the
  journal is a WAL, not just evidence;
- hot-standby takeover re-adopts the data plane under the primary's
  endpoint name and never *lowers* a device's defenses while reconciling.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import SecuredDeployment
from repro.core.ha import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointStore,
    restore_controller,
)
from repro.devices.library import smart_camera, smart_plug
from repro.policy.fsm import PostureRule, StatePredicate
from repro.policy.posture import block_commands
from repro.policy.serialization import policy_to_dict
from tests.test_properties import random_policies


def make_dep(sim=None, **kwargs):
    dep = SecuredDeployment.build(
        sim=sim,
        consistent_updates=True,
        reliable_control=True,
        checkpointing=True,
        checkpoint_period=1.0,
        **kwargs,
    )
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
    dep.finalize()
    dep.secure("plug", block_commands("on"))
    dep.enforce_baseline()
    return dep


def send_alert(dep, device, kind, at):
    dep.sim.schedule_at(
        at,
        dep.channel.send,
        dep.CLUSTER,
        dep.CONTROLLER,
        "alert",
        {"device": device, "kind": kind, "detail": {}},
    )


def drive(dep, horizon=8.0):
    """A small deterministic workload: enough alerts to escalate the cam.

    The last alert lands *after* the final checkpoint tick, so restoring
    requires the journal tail, not just the snapshot.
    """
    for i in range(5):
        send_alert(dep, "cam", "login-attempt", 1.0 + i * 0.5)
    send_alert(dep, "plug", "anomalous-command", 2.0)
    send_alert(dep, "cam", "login-attempt", horizon - 0.2)
    dep.run(until=horizon)
    return dep


def reference_digest(checkpoint):
    """The digest as it was first defined: one ``json.dumps`` of the whole
    checkpoint.  ``Checkpoint.digest`` must assemble these exact bytes."""
    canonical = json.dumps(
        checkpoint.as_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Checkpoint determinism
# ---------------------------------------------------------------------------
class TestCheckpointDeterminism:
    def test_same_seeded_run_same_digests(self):
        """Two independent runs of the same scenario checkpoint to
        byte-identical digests -- the cross-machine determinism CI relies
        on."""
        digests = []
        for __ in range(2):
            dep = drive(make_dep())
            digests.append([cp.digest() for cp in dep.checkpoint_store])
        assert digests[0] == digests[1]
        assert len(digests[0]) >= 4  # periodic ticks actually fired

    def test_digest_tracks_state(self):
        """The digest changes exactly when controller state changes."""
        dep = make_dep()
        dep.run(until=0.5)
        a = Checkpoint.capture(dep.controller).digest()
        assert Checkpoint.capture(dep.controller).digest() == a
        dep.controller.set_context("cam", "suspicious")
        assert Checkpoint.capture(dep.controller).digest() != a

    def test_round_trips_through_dict(self):
        dep = drive(make_dep())
        cp = Checkpoint.capture(dep.controller)
        clone = Checkpoint.from_dict(cp.as_dict())
        assert clone.digest() == cp.digest()
        assert clone.view == cp.view and clone.escalations == cp.escalations

    def test_rejects_unknown_version(self):
        dep = make_dep()
        data = Checkpoint.capture(dep.controller).as_dict()
        data["version"] = CHECKPOINT_VERSION + 1
        with pytest.raises(ValueError):
            Checkpoint.from_dict(data)


class TestPolicySectionReuse:
    """Checkpoints at one policy revision share the serialized policy;
    ``add_rule`` moves later captures to a new section and leaves
    retained checkpoints on the old one."""

    @staticmethod
    def lock_stream_rule():
        return PostureRule(
            predicate=StatePredicate.make({"ctx:cam": "suspicious"}),
            device="cam",
            posture=block_commands("stream"),
            priority=900,
        )

    @staticmethod
    def suspicious_cam_posture(checkpoint):
        """The cam's posture once suspicious, on a site revived from
        ``checkpoint`` alone (no journal tail)."""
        site = make_dep()
        site.crash_controller()
        controller = restore_controller(site, checkpoint, (), name=site.CONTROLLER)
        site._bind(controller)
        controller.set_context("cam", "suspicious")
        return site.orchestrator.posture_of("cam").name

    def test_add_rule_invalidates_without_touching_retained_checkpoints(self):
        dep = make_dep()
        dep.run(until=0.5)
        old = Checkpoint.capture(dep.controller)
        assert Checkpoint.capture(dep.controller).policy is old.policy
        old_policy = policy_to_dict(dep.controller.policy)
        old_digest = old.digest()
        dep.checkpoint_store.add(old)
        shipped = old.as_dict()

        dep.controller.update_policy(self.lock_stream_rule())
        new = Checkpoint.capture(dep.controller)

        assert new.policy is not old.policy
        assert old.policy == old_policy == shipped["policy"]
        assert dep.checkpoint_store.latest().policy == old_policy
        assert new.policy == policy_to_dict(dep.controller.policy)
        assert len(new.policy["rules"]) == len(old.policy["rules"]) + 1
        assert old.digest() == old_digest == reference_digest(old)
        assert new.digest() == reference_digest(new) != old_digest
        # Each checkpoint revives a controller that enforces *its* policy.
        assert self.suspicious_cam_posture(old) == "stateful_firewall"
        assert self.suspicious_cam_posture(new) == "block-commands"

    def test_policy_to_dict_callers_get_their_own_dict(self):
        dep = make_dep()
        shared = Checkpoint.capture(dep.controller).policy
        mine = policy_to_dict(dep.controller.policy)
        mine["rules"].clear()
        mine["default_posture"]["name"] = "edited"
        assert Checkpoint.capture(dep.controller).policy is shared
        assert shared == policy_to_dict(dep.controller.policy)

    def test_reuse_counter_counts_shared_sections(self):
        dep = make_dep()
        dep.run(until=3.5)  # ticks at 1, 2, 3: the first builds, two reuse
        dep.controller.update_policy(self.lock_stream_rule())
        dep.run(until=5.5)  # tick 4 builds the new section, tick 5 reuses
        metrics = dep.sim.metrics
        assert metrics.value("checkpoints_captured", controller=dep.CONTROLLER) == 5
        assert metrics.value("checkpoint_sections_reused", controller=dep.CONTROLLER) == 3

    @settings(max_examples=25, deadline=None)
    @given(random_policies(), st.data())
    def test_digest_is_byte_equal_to_the_reference_encoding(self, policy, data):
        dep = SecuredDeployment.build()
        dep.policy = policy
        dep.finalize()
        controller = dep.controller
        for domain in policy.space.domains:
            value = data.draw(st.sampled_from((None, *domain.values)))
            if value is not None:
                controller.view.set(domain.variable.key, value)
        # Free text exercises the encoder's escaping in a spliced neighbour.
        controller.view.set("env:note", data.draw(st.text(max_size=8)))
        first = Checkpoint.capture(controller)
        cached = Checkpoint.capture(controller)
        shipped = Checkpoint.from_dict(cached.as_dict())
        assert cached.policy is first.policy
        assert (
            first.digest()
            == cached.digest()
            == shipped.digest()
            == reference_digest(first)
        )


class TestCheckpointStore:
    def test_keeps_newest_n(self):
        dep = make_dep()
        store = CheckpointStore(keep=3)
        for t in (1.0, 2.0, 3.0, 4.0, 5.0):
            dep.run(until=t)
            store.add(Checkpoint.capture(dep.controller))
        assert store.captured == 5 and len(store) == 3
        assert store.latest().at == 5.0
        assert [cp.at for cp in store] == [3.0, 4.0, 5.0]

    def test_latest_empty(self):
        assert CheckpointStore().latest() is None


# ---------------------------------------------------------------------------
# Restore + WAL replay
# ---------------------------------------------------------------------------
class TestRestoreReplay:
    def test_restart_reconstructs_crashed_state(self):
        """Checkpoint + journal-tail replay equals the never-crashed
        state: view, escalation windows and installed postures all match
        what the controller held the instant it died."""
        dep = drive(make_dep(), horizon=7.3)
        before = {
            "view": dep.controller.view.snapshot(),
            "escalations": dep.controller.pipeline.escalator.snapshot(),
            "postures": {d: p.name for d, p in dep.orchestrator.current.items()},
        }
        assert before["view"].get("ctx:cam") == "suspicious"  # workload escalated

        dep.crash_controller()
        dep.restart_controller()

        after = {
            "view": dep.controller.view.snapshot(),
            "escalations": dep.controller.pipeline.escalator.snapshot(),
            "postures": {d: p.name for d, p in dep.orchestrator.current.items()},
        }
        assert after == before
        restart = dep.sim.journal.entries(kind="controller-restart")
        assert len(restart) == 1
        # The escalations that fired after the last checkpoint came back
        # through the WAL tail, not the (stale) checkpoint.
        assert restart[0].fields["replayed"] > 0

    def test_restart_requires_a_checkpoint(self):
        dep = SecuredDeployment.build()
        dep.add_device(smart_plug, "plug")
        dep.finalize()
        with pytest.raises(RuntimeError):
            dep.restart_controller()

    def test_crash_is_idempotent_and_detaches(self):
        dep = make_dep()
        dep.run(until=0.5)
        dep.crash_controller()
        crashed = dep.sim.journal.entries(kind="controller-crash")
        assert len(crashed) == 1
        # Alerts to the dead controller do not raise; they are retried or
        # dropped by the channel, never handled.
        send_alert(dep, "cam", "login-attempt", 0.6)
        dep.run(until=1.0)
        assert dep.sim.journal.entries(kind="alert-ingest") == []


# ---------------------------------------------------------------------------
# Hot-standby failover
# ---------------------------------------------------------------------------
class TestFailover:
    def make_ha_dep(self):
        dep = SecuredDeployment.build(
            consistent_updates=True,
            reliable_control=True,
            checkpointing=True,
            checkpoint_period=1.0,
            standby=True,
            ha_seed=7,
        )
        dep.add_device(smart_camera, "cam")
        dep.add_device(smart_plug, "plug", load={"hazard": 1.0})
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        dep.enforce_baseline()
        return dep

    def test_takeover_on_heartbeat_loss(self):
        dep = self.make_ha_dep()
        primary = dep.controller
        dep.sim.schedule_at(5.0, dep.crash_controller)
        dep.run(until=10.0)
        assert dep.controller is not primary
        assert dep.controller is dep.standby_controller.promoted
        failover = dep.sim.journal.entries(kind="failover")
        complete = dep.sim.journal.entries(kind="failover-complete")
        assert len(failover) == 1 and len(complete) == 1
        assert failover[0].fields["reason"] == "heartbeat-timeout"
        # Detection is heartbeat timeout + jitter + check quantum, not
        # minutes of silence.
        assert complete[0].fields["blind_s"] < 2.0

    def test_takeover_never_lowers_defenses(self):
        """Reconciliation keeps the stricter installed posture when the
        restored policy has no opinion (the out-of-band monitor baseline
        and the pinned block must both survive takeover)."""
        dep = self.make_ha_dep()
        before = {d: p.name for d, p in dep.orchestrator.current.items()}
        dep.sim.schedule_at(5.0, dep.crash_controller)
        dep.run(until=10.0)
        after = {d: p.name for d, p in dep.orchestrator.current.items()}
        assert after == before
        assert after["cam"] == "monitor" and after["plug"] == "block-commands"

    def test_new_primary_serves_alerts(self):
        """Post-takeover the standby runs the whole loop under the
        primary's endpoint name: alerts escalate and postures land."""
        dep = self.make_ha_dep()
        dep.sim.schedule_at(5.0, dep.crash_controller)
        for i in range(5):
            send_alert(dep, "cam", "login-attempt", 8.0 + i * 0.5)
        dep.run(until=15.0)
        assert dep.controller.view.get("ctx:cam") == "suspicious"

    def test_scenario_blind_window_ratio(self, gate):
        """The E13 acceptance bound: failover's blind window stays under
        the gated share of the cold-restart outage, and nothing held for
        the dead primary is left unacked in either arm."""
        from repro.faults.scenario import run_failover_scenario

        crash = run_failover_scenario(standby=False)
        standby = run_failover_scenario(standby=True)
        assert standby["failovers"] == 1 and crash["restarts"] == 1
        assert standby["blind_window_s"] < gate.FAILOVER_BLIND_RATIO * crash["blind_window_s"]
        assert standby["ctrl_unacked"] == crash["ctrl_unacked"] == 0
