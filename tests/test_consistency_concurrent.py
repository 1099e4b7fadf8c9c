"""Regression tests: overlapping two-phase updates.

The original implementation captured each switch's active version at
*scheduling* time; overlapping pushes then garbage-collected the wrong
epoch and could flip a switch backwards.  These tests pin the fixed
semantics: versions are monotone, stale epochs are collected, and the
final state is always the newest pushed configuration.

The second half holds *scoped* epochs (each replaces the rule groups of
some owners and leaves the rest of the table alone) to the same promise,
per owner, over a reliable channel that drops and delays: checked after
every single event, not just at the end.
"""

import random

import pytest

from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch
from repro.sdn.channel import ControlChannel, FaultModel, RetryPolicy
from repro.sdn.consistency import ConsistentUpdater
from repro.sdn.flowrule import Action, FlowMatch, FlowRule


def setup(sim, latency=0.01):
    channel = ControlChannel(sim, latency=latency)
    updater = ConsistentUpdater(sim, channel)
    switch = Switch("sw", sim)
    return updater, switch


def rules(tag):
    return [
        FlowRule(match=FlowMatch(dst=tag), actions=(Action.drop(),))
    ]


def test_overlapping_pushes_converge_to_newest(sim):
    updater, switch = setup(sim)
    r1 = updater.push_two_phase({switch: rules("epoch1")})
    # second push starts before the first commits
    sim.run(until=0.005)
    r2 = updater.push_two_phase({switch: rules("epoch2")})
    sim.run()
    assert switch.active_version == r2.version
    live = [r for r in switch.flow_table if r.version == switch.active_version]
    assert [r.match.dst for r in live] == ["epoch2"]
    # no stale epochs left behind
    assert all(r.version == r2.version for r in switch.flow_table)
    assert r1.version < r2.version


def test_version_never_steps_backwards(sim):
    updater, switch = setup(sim, latency=0.01)
    updater.push_two_phase({switch: rules("a")})
    updater.push_two_phase({switch: rules("b")})
    updater.push_two_phase({switch: rules("c")})
    observed = []

    orig = switch.set_active_version

    def spy(version):
        observed.append(version)
        orig(version)

    switch.set_active_version = spy
    sim.run()
    assert observed == sorted(observed)
    assert switch.active_version == max(observed)


def test_three_way_interleaving_many_switches(sim):
    channel = ControlChannel(sim, latency=0.01)
    updater = ConsistentUpdater(sim, channel)
    switches = [Switch(f"sw{i}", sim) for i in range(5)]
    # different per-switch latencies make the flips land out of order
    for i, sw in enumerate(switches):
        channel.set_latency_to(sw.name, 0.005 * (i + 1))
    last = None
    for tag in ("a", "b", "c"):
        last = updater.push_two_phase({sw: rules(tag) for sw in switches})
        sim.run(until=sim.now + 0.004)
    sim.run()
    for sw in switches:
        assert sw.active_version == last.version
        assert all(r.version == last.version for r in sw.flow_table)
        assert [r.match.dst for r in sw.flow_table] == ["c"]


def test_reports_all_commit(sim):
    updater, switch = setup(sim)
    updater.push_two_phase({switch: rules("a")})
    updater.push_two_phase({switch: rules("b")})
    sim.run()
    assert all(r.committed_at is not None for r in updater.reports)


# ----------------------------------------------------------------------
# Scoped epochs: overlapping, lossy, out of order
# ----------------------------------------------------------------------
OWNERS = ("a", "b", "c", "d")
GROUP = 3


def group(owner):
    return [
        FlowRule(match=FlowMatch(src=owner, dport=port), actions=(Action.drop(),), owner=owner)
        for port in range(GROUP)
    ]


def lossy_setup(sim, seed):
    channel = ControlChannel(sim, latency=0.01)
    channel.inject_faults(FaultModel(seed=seed, drop_prob=0.2, jitter=0.03))
    return ConsistentUpdater(sim, channel, reliable=True), Switch("sw", sim)


def push_scoped(updater, switch, scope):
    return updater.push_two_phase(
        {switch: [rule for owner in scope for rule in group(owner)]}, scope={switch: scope}
    )


def live_versions(switch, owner):
    return [r.version for r in switch.flow_table if r.owner == owner and switch.is_live(r)]


def schedule_overlapping_epochs(sim, updater, switch, seed):
    """Twelve epochs over random scopes, 0-30 ms apart (an epoch takes 30
    ms without faults).  Returns owner -> the newest version that had it
    in scope, filled in as the pushes fire."""
    rng = random.Random(seed)
    newest: dict[str, int] = {}

    def push():
        scope = rng.sample(OWNERS, rng.randint(1, len(OWNERS)))
        report = push_scoped(updater, switch, scope)
        newest.update(dict.fromkeys(scope, report.version))

    at = 0.0
    for __ in range(12):
        sim.schedule_at(at, push)
        at += rng.uniform(0.0, 0.03)
    return newest


@pytest.mark.parametrize("seed", range(6))
def test_scoped_epochs_flip_whole_groups_under_loss_and_jitter(seed):
    """Overlapping epochs, 20% loss, jitter three times the latency.  After
    every event each owner that has gone live runs exactly one epoch's
    complete group -- never a mix, never none -- and never an older one
    than before; at the end every owner runs the newest epoch that had it
    in scope and nothing stale is left."""
    sim = Simulator()
    updater, switch = lossy_setup(sim, seed)
    newest = schedule_overlapping_epochs(sim, updater, switch, seed)
    running: dict[str, int] = {}
    while sim.step():
        for owner in OWNERS:
            versions = live_versions(switch, owner)
            if owner not in running and not versions:
                continue  # its first epoch has not flipped yet
            assert len(versions) == GROUP and len(set(versions)) == 1, (sim.now, owner)
            assert versions[0] >= running.get(owner, 0)
            running[owner] = versions[0]
    assert all(report.committed_at is not None for report in updater.reports)
    assert running == newest
    assert all(switch.is_live(rule) for rule in switch.flow_table)
    assert switch.table_size() == GROUP * len(newest)
    assert switch.active_version == len(updater.reports)


def test_the_seeds_above_do_land_flips_out_of_order():
    """The property above would hold trivially if jitter never reordered
    two flips; over those seeds it does, on several."""
    reordered = 0
    for seed in range(6):
        sim = Simulator()
        updater, switch = lossy_setup(sim, seed)
        flipped = []
        original = switch.set_active_version
        switch.set_active_version = lambda version, owners: (
            flipped.append(version),
            original(version, owners),
        )
        schedule_overlapping_epochs(sim, updater, switch, seed)
        sim.run()
        reordered += flipped != sorted(flipped)
    assert reordered >= 2


def test_an_owner_in_scope_without_rules_loses_its_group_on_the_flip(sim):
    updater, switch = setup(sim)
    push_scoped(updater, switch, ["a", "b"])
    sim.run()
    report = updater.push_two_phase({switch: group("b")}, scope={switch: ["a", "b"]})
    sim.run(until=sim.now + 0.015)  # installed, not flipped: both old groups still run
    assert len(live_versions(switch, "a")) == len(live_versions(switch, "b")) == GROUP
    sim.run()
    assert live_versions(switch, "a") == []
    assert live_versions(switch, "b") == [report.version] * GROUP
    assert (report.rules_installed, report.rules_removed) == (GROUP, 2 * GROUP)
    assert switch.table_size() == GROUP


def test_a_scoped_epoch_touches_no_other_group(sim):
    updater, switch = setup(sim)
    first = push_scoped(updater, switch, ["a", "b", "c"])
    sim.run()
    kept = [rule for rule in switch.flow_table if rule.owner != "b"]
    second = push_scoped(updater, switch, ["b"])
    sim.run()
    assert (second.rules_installed, second.rules_removed) == (GROUP, GROUP)
    assert [rule for rule in switch.flow_table if rule.owner != "b"] == kept
    assert {rule.version for rule in kept} == {first.version}
    assert all(switch.is_live(rule) for rule in switch.flow_table)
    assert switch.active_version == second.version


def test_a_rule_outside_the_scope_is_refused_before_anything_is_sent(sim):
    updater, switch = setup(sim)
    with pytest.raises(ValueError, match="outside its scope"):
        updater.push_two_phase({switch: group("a") + group("b")}, scope={switch: ["a"]})
    assert updater.reports == [] and sim.events_pending() == 0


def test_a_given_up_epoch_is_superseded_by_the_next_one_in_its_scope():
    """The channel abandons the first epoch's install; its owner stays on
    the old group, whole.  The next epoch with that owner in scope
    replaces it, and when the abandoned epoch's rules did land (a lost
    flip instead) they are collected as superseded, never activated."""
    for lose in ("install", "flip"):
        sim = Simulator()
        channel = ControlChannel(
            sim, latency=0.01, retry_policy=RetryPolicy(timeout=0.05, backoff=1.0, max_retries=2)
        )
        updater, switch = ConsistentUpdater(sim, channel, reliable=True), Switch("sw", sim)
        base = push_scoped(updater, switch, ["a", "b"])
        sim.run()
        start = sim.now if lose == "install" else sim.now + 0.015
        channel.partition(start, start + 1.0, endpoints=("sw",))
        lost = push_scoped(updater, switch, ["a"])
        sim.run(until=start + 2.0)
        assert channel.giveups == 1 and lost.committed_at is None
        assert live_versions(switch, "a") == [base.version] * GROUP
        healed = push_scoped(updater, switch, ["a", "b"])
        sim.run()
        assert healed.committed_at is not None
        assert live_versions(switch, "a") == live_versions(switch, "b") == [healed.version] * GROUP
        assert all(switch.is_live(rule) for rule in switch.flow_table)
        assert switch.table_size() == 2 * GROUP
