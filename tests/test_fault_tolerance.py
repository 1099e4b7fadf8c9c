"""Property-style tests for control-plane fault tolerance.

Two invariants carry this PR:

- **at-least-once on the wire, exactly-once to the application**: under
  any seeded drop pattern, every reliable control message is eventually
  delivered to its handler exactly once (the lane's resends cover the
  losses, the receiver's watermark swallows the duplicates);
- **fail-closed means closed**: while an enforcement µmbox is down, not
  one packet crosses it -- the device is unreachable, not unprotected.

Everything is deterministic: the seeds below pin exact drop patterns, so
these are replayable counterexample searches, not flaky statistics.
"""

import json

import pytest

from repro.faults import ChaosGenerator, FaultEvent, FaultPlan
from repro.sdn.channel import ControlChannel, FaultModel, RetryPolicy


def lossy_channel(sim, seed, drop_prob, timeout=0.02):
    chan = ControlChannel(sim, latency=0.002, retry_policy=RetryPolicy(timeout=timeout))
    chan.inject_faults(FaultModel(seed=seed, drop_prob=drop_prob))
    return chan


# ---------------------------------------------------------------------------
# At-least-once delivery
# ---------------------------------------------------------------------------
class TestAtLeastOnce:
    @pytest.mark.parametrize("seed", range(8))
    def test_exactly_once_to_app_under_seeded_loss(self, sim, seed):
        """Every reliable message lands exactly once, whatever the wire
        eats -- the property, checked against 8 distinct drop patterns."""
        chan = lossy_channel(sim, seed=seed, drop_prob=0.35)
        got = []
        chan.register("ctrl", lambda m: got.append(m.body["n"]))
        for n in range(25):
            sim.schedule(n * 0.01, chan.send, "sw", "ctrl", "alert", {"n": n}, True)
        sim.run()
        assert sorted(got) == list(range(25))  # all delivered, none twice
        assert chan.giveups == 0
        assert chan.retries > 0  # the pattern actually exercised retries

    def test_unreliable_messages_stay_lossy(self, sim):
        """Fire-and-forget is untouched by the retry machinery: what the
        fault model drops stays dropped."""
        chan = lossy_channel(sim, seed=1, drop_prob=0.5)
        got = []
        chan.register("ctrl", lambda m: got.append(m.body["n"]))
        for n in range(40):
            sim.schedule(n * 0.01, chan.send, "sw", "ctrl", "alert", {"n": n})
        sim.run()
        assert 0 < len(got) < 40  # this seed drops some, not all
        assert chan.retries == 0 and chan.dropped == 40 - len(got)

    def test_lost_ack_causes_duplicate_which_dedup_swallows(self, sim):
        """Partition only the *sender*: data gets through, acks do not.
        The sender retransmits, the receiver dedups and re-acks."""
        chan = ControlChannel(
            sim, latency=0.002, retry_policy=RetryPolicy(timeout=0.02)
        )
        chan.partition(0.0, 0.2, endpoints=("sw",))  # acks travel to "sw"
        got = []
        chan.register("ctrl", lambda m: got.append(m.body))
        chan.send("sw", "ctrl", "alert", {"n": 1}, reliable=True)
        sim.run()
        assert got == [{"n": 1}]  # app saw exactly one copy
        assert chan.duplicates > 0  # the wire saw more
        assert chan.acked == 1  # the re-ack landed after the heal

    def test_no_give_up_while_the_receiver_stays_dark(self, sim):
        """An endless partition: the lane never gives up and never sends
        into the dark -- it ticks at capped backoff, holding the record."""
        chan = ControlChannel(sim, latency=0.002, retry_policy=RetryPolicy(timeout=0.01))
        chan.partition(0.0, 1e9, endpoints=("ctrl",))
        chan.register("ctrl", lambda m: pytest.fail("must never deliver"))
        chan.send("sw", "ctrl", "alert", {"n": 1}, reliable=True)
        sim.run(until=3600.0)
        assert chan.giveups == 0 and chan.dropped == 0 and chan.retries == 0
        assert chan.unacked() == 1 and sim.events_pending() == 1
        # Capped backoff: an hour in the dark costs ~1,800 ticks, not more.
        assert sim.events_processed <= 3600.0 / 2.0 + 10

    def test_message_sent_inside_partition_arrives_after_heal(self, sim):
        chan = ControlChannel(sim, latency=0.002, retry_policy=RetryPolicy(timeout=0.05))
        chan.partition(0.0, 0.4)
        arrivals = []
        chan.register("ctrl", lambda m: arrivals.append(sim.now))
        sim.schedule(0.1, chan.send, "sw", "ctrl", "alert", {}, True)
        sim.run()
        assert len(arrivals) == 1 and arrivals[0] > 0.4

    @pytest.mark.parametrize("seed", (0, 3, 5))
    def test_two_phase_commit_correct_over_lossy_channel(self, sim, seed):
        """Consistent updates ride the reliable channel: the epoch still
        installs and flips exactly once per switch under loss."""
        from repro.netsim.switch import Switch
        from repro.sdn.consistency import ConsistentUpdater
        from repro.sdn.flowrule import Action, FlowMatch, FlowRule

        chan = lossy_channel(sim, seed=seed, drop_prob=0.3)
        updater = ConsistentUpdater(sim, chan, reliable=True)
        switches = [Switch(f"sw{i}", sim) for i in range(3)]
        rules = {
            sw: [FlowRule(match=FlowMatch(), actions=(Action.drop(),))]
            for sw in switches
        }
        report = updater.push_two_phase(rules)
        sim.run()
        assert report.committed_at is not None
        for sw in switches:
            assert sw.active_version == report.version
            assert sw.table_size() == 1  # retransmissions did not re-apply


# ---------------------------------------------------------------------------
# µmbox failure semantics
# ---------------------------------------------------------------------------
def plug_under_attack(health_check_period=None):
    """A secured plug whose command filter we can crash, plus a steady
    stream of benign-shaped attacker commands to probe reachability."""
    from repro.core.deployment import SecuredDeployment
    from repro.devices import protocol
    from repro.devices.library import WEMO_BACKDOOR_PORT, smart_plug
    from repro.policy.posture import block_commands

    dep = SecuredDeployment.build(health_check_period=health_check_period)
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    dep.secure("plug", block_commands("on"))  # enforcing -> fail-closed
    for i in range(100):
        # "off" is NOT blocked by the filter: in healthy operation these
        # reach the device, so any gap in arrivals is the µmbox's doing.
        sim_t = 0.5 + i * 0.1
        dep.sim.schedule_at(
            sim_t,
            attacker.fire_and_forget,
            protocol.command("attacker", "plug", "off", dport=WEMO_BACKDOOR_PORT),
        )
    return dep


class TestFailureModes:
    def test_fail_closed_passes_nothing_while_down(self, sim):
        """The invariant: no packet reaches the device between crash and
        recovery.  In-flight packets (sent before the crash) get a small
        grace window equal to the path latency."""
        dep = plug_under_attack(health_check_period=0.5)
        dep.sim.schedule_at(3.0, dep.manager.crash, "plug")
        dep.run(until=10.0)
        outage = dep.manager.outages[0]
        assert outage.fail_mode == "closed"
        assert outage.restored_at is not None
        arrivals = [r.at for r in dep.devices["plug"].command_log]
        in_flight_margin = 0.05
        gap = [
            t
            for t in arrivals
            if outage.down_at + in_flight_margin <= t < outage.restored_at
        ]
        assert gap == []  # closed means closed
        assert dep.cluster.down_drops > 0
        # ...and traffic resumed after recovery: the outage is an
        # availability blip, not a permanent black hole.
        assert any(t > outage.restored_at for t in arrivals)

    def test_fail_open_keeps_passing_but_uninspected(self, sim):
        dep = plug_under_attack()  # no health checks: stays down
        dep.cluster.mboxes["plug"].fail_mode = "open"
        dep.sim.schedule_at(3.0, dep.manager.crash, "plug")
        dep.run(until=10.0)
        arrivals = [r.at for r in dep.devices["plug"].command_log]
        assert any(t > 3.1 for t in arrivals)  # still flowing
        assert dep.cluster.fail_open_passes > 0
        assert dep.manager.restarts == 0  # nobody noticed

    def test_enforcement_restored_after_recovery(self, sim):
        """The filter is back after crash -> sweep -> reboot -> repin:
        blocked commands stay blocked post-recovery."""
        from repro.devices import protocol
        from repro.devices.library import WEMO_BACKDOOR_PORT

        dep = plug_under_attack(health_check_period=0.5)
        attacker = dep.attackers["attacker"]
        dep.sim.schedule_at(3.0, dep.manager.crash, "plug")
        dep.sim.schedule_at(
            8.0,
            attacker.fire_and_forget,
            protocol.command("attacker", "plug", "on", dport=WEMO_BACKDOOR_PORT),
        )
        dep.run(until=10.0)
        assert dep.manager.restarts == 1
        plug = dep.devices["plug"]
        assert not any(r.cmd == "on" and r.accepted for r in plug.command_log)
        assert plug.state != "on"
        # the recovery chain is journaled end to end
        kinds = [e.kind for e in dep.sim.journal.entries(device="plug")]
        for kind in ("mbox-crash", "mbox-restart", "mbox-recovered", "chain-repin"):
            assert kind in kinds
        # downtime is bounded by detection (one period) + boot latency
        outage = dep.manager.outages[0]
        assert outage.downtime <= 0.5 + dep.manager.boot_latency + 1e-9

    def test_monitor_only_postures_derive_fail_open(self, sim):
        from repro.core.orchestrator import build_recommended_posture
        from repro.policy.posture import block_commands

        monitor = build_recommended_posture("monitor", "cam")
        assert monitor.failure_mode() == "open"
        assert block_commands("on").failure_mode() == "closed"

    def test_explicit_fail_mode_overrides_derivation(self, sim):
        from repro.policy.posture import MboxSpec, Posture
        from repro.policy.serialization import posture_from_dict, posture_to_dict

        posture = Posture.make(
            "audit-tap", MboxSpec.make("telemetry_tap"), fail_mode="closed"
        )
        assert posture.failure_mode() == "closed"
        assert posture_from_dict(posture_to_dict(posture)).failure_mode() == "closed"

    def test_crash_of_unbound_device_is_a_noop(self, sim):
        dep = plug_under_attack()
        assert dep.manager.crash("ghost") is False
        assert dep.manager.crash("plug") is True
        assert dep.manager.crash("plug") is False  # already down
        assert dep.manager.crashes == 1


# ---------------------------------------------------------------------------
# Fault plans and the chaos generator
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_events_validate(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "meteor-strike", "plug")
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "mbox-crash", "plug")
        with pytest.raises(ValueError):
            FaultEvent(1.0, "partition", "*", duration=-2.0)
        with pytest.raises(ValueError):
            FaultEvent(1.0, "mbox-crash", "")

    def test_plan_sorts_and_serializes(self):
        plan = FaultPlan(
            [
                FaultEvent(5.0, "mbox-crash", "plug"),
                FaultEvent(1.0, "partition", "*", 3.0),
            ]
        )
        assert [e.at for e in plan] == [1.0, 5.0]
        assert plan.horizon() == 5.0
        assert plan.counts() == {"partition": 1, "mbox-crash": 1}
        assert FaultPlan.from_dict(plan.as_dict()).as_dict() == plan.as_dict()

    def test_apply_rejects_unknown_targets(self, sim):
        from repro.core.deployment import SecuredDeployment
        from repro.devices.library import smart_plug

        dep = SecuredDeployment.build(sim=sim)
        dep.add_device(smart_plug, "plug")
        dep.finalize()
        with pytest.raises(KeyError):
            FaultPlan([FaultEvent(1.0, "mbox-crash", "ghost")]).apply(dep)
        with pytest.raises(KeyError):
            FaultPlan([FaultEvent(1.0, "link-flap", "edge:ghost")]).apply(dep)
        with pytest.raises(ValueError):
            FaultPlan([FaultEvent(1.0, "link-flap", "not-a-link")]).apply(dep)

    def test_applied_faults_fire_and_are_journaled(self, sim):
        from repro.core.deployment import SecuredDeployment
        from repro.devices.library import smart_plug
        from repro.policy.posture import block_commands

        dep = SecuredDeployment.build(sim=sim)
        dep.add_device(smart_plug, "plug")
        dep.finalize()
        dep.secure("plug", block_commands("on"))
        plan = FaultPlan(
            [
                FaultEvent(1.0, "partition", "*", 2.0),
                FaultEvent(2.0, "mbox-crash", "plug"),
                FaultEvent(3.0, "link-flap", "edge:plug", 1.0),
            ]
        )
        assert plan.apply(dep) == 3
        dep.run(until=10.0)
        assert dep.manager.crashes == 1
        faults = sim.journal.entries(kind="fault")
        assert {e.fields["fault"] for e in faults} == set(plan.counts())


class TestChaosGenerator:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            duration=30.0, endpoints=("*",), devices=("cam", "plug"), links=("a:b",)
        )
        plan_a = ChaosGenerator(seed=42).generate(**kwargs)
        plan_b = ChaosGenerator(seed=42).generate(**kwargs)
        assert plan_a.as_dict() == plan_b.as_dict()
        assert plan_a.as_dict() != ChaosGenerator(seed=43).generate(**kwargs).as_dict()

    def test_counts_follow_the_requested_shape(self):
        plan = ChaosGenerator(seed=1).generate(
            duration=60.0,
            links=("a:b",),
            devices=("cam",),
            link_flaps=3,
            partitions=2,
            crashes=4,
        )
        assert plan.counts() == {"link-flap": 3, "partition": 2, "mbox-crash": 4}
        assert all(1.0 <= e.at < 60.0 for e in plan)  # warmup respected

    def test_empty_target_pools_contribute_nothing(self):
        plan = ChaosGenerator(seed=1).generate(duration=10.0, endpoints=(), devices=())
        assert plan.counts() == {}

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            ChaosGenerator().generate(duration=0.5)  # <= warmup
        with pytest.raises(ValueError):
            ChaosGenerator().generate(duration=10.0, min_fault=5.0, max_fault=1.0)


class TestFaultPlanParsing:
    """``from_json``/``from_dict`` reject malformed plans with an error
    that names the offending event -- parse time, not mid-run."""

    def test_unknown_kind_names_the_event(self):
        with pytest.raises(ValueError, match=r"fault event #1 .*meteor-strike"):
            FaultPlan.from_dict(
                {
                    "events": [
                        {"at": 1.0, "kind": "partition", "target": "*"},
                        {"at": 2.0, "kind": "meteor-strike", "target": "plug"},
                    ]
                }
            )

    def test_missing_field_names_the_event(self):
        with pytest.raises(ValueError, match=r"fault event #0 .*'target'"):
            FaultPlan.from_dict({"events": [{"at": 1.0, "kind": "partition"}]})

    def test_malformed_window_names_the_event(self):
        with pytest.raises(ValueError, match=r"fault event #0 "):
            FaultPlan.from_dict(
                {
                    "events": [
                        {
                            "at": 1.0,
                            "kind": "partition",
                            "target": "*",
                            "duration": "soon",
                        }
                    ]
                }
            )
        with pytest.raises(ValueError, match=r"fault event #0 .*duration"):
            FaultPlan.from_dict(
                {
                    "events": [
                        {"at": 1.0, "kind": "partition", "target": "*", "duration": -3}
                    ]
                }
            )

    def test_rejects_non_object_plans(self):
        with pytest.raises(ValueError, match="events"):
            FaultPlan.from_dict([{"at": 1.0}])
        with pytest.raises(ValueError, match="events"):
            FaultPlan.from_dict({"events": "partition"})

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FaultPlan.from_json("{not json")

    def test_from_json_round_trips_intensity(self):
        plan = FaultPlan(
            [FaultEvent(5.0, "alert-storm", "cam", 8.0, intensity=500.0)]
        )
        clone = FaultPlan.from_json(json.dumps(plan.as_dict()))
        assert clone.as_dict() == plan.as_dict()
        assert clone.events[0].intensity == 500.0
