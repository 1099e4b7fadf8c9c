"""Tests for the orchestrator's two-phase consistent-update mode.

An epoch is scoped to the devices the round touched plus those whose last
epoch has not committed; the second half drives overlapping epochs over a
lossy, jittery reliable channel and checks every device's rule group
after every single event.
"""

import random

import pytest

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import OFFLOAD_PRIORITY, build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.policy.posture import ALLOW_ALL, block_commands
from repro.sdn.channel import FaultModel


@pytest.fixture
def dep():
    deployment = SecuredDeployment.build(consistent_updates=True)
    deployment.add_device(smart_camera, "cam")
    deployment.add_device(smart_plug, "plug")
    deployment.add_attacker()
    deployment.finalize()
    return deployment


def test_rules_installed_with_version_tags(dep):
    dep.secure("cam", block_commands("stop"))
    dep.run(until=1.0)
    rules = dep.edge.rules_for("cam")
    # two bypasses, two tunnel rules (the source row above the destination
    # row) and the pinned command filter's one blind flow (anything the
    # camera sends), all in the same epoch
    assert sorted(r.priority for r in rules) == [500, 510, 700, 890, 900]
    assert all(r.version is not None for r in rules)
    assert dep.edge.active_version == rules[0].version


def test_rules_inactive_before_commit(dep):
    dep.secure("cam", block_commands("stop"))
    # the two-phase commit needs 3 channel legs (2 ms each); before that,
    # the new epoch is installed but not active
    assert dep.edge.active_version is None
    assert dep.edge.lookup(
        protocol.command("attacker", "cam", "stop"), in_port=0
    ) is None
    dep.run(until=1.0)
    assert dep.edge.active_version is not None


def test_traffic_traverses_mbox_after_commit(dep):
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    dep.run(until=3.0)
    assert dep.devices["plug"].state == "off"
    assert len(dep.alerts("plug")) == 1


def test_second_device_epoch_keeps_first_devices_rules(dep):
    dep.secure("cam", block_commands("stop"))
    dep.run(until=1.0)
    dep.secure("plug", block_commands("on"))
    dep.run(until=2.0)
    cam, plug = dep.edge.rules_for("cam"), dep.edge.rules_for("plug")
    assert len(cam) == len(plug) == 5
    # each group is one epoch's and live; the plug's epoch left the
    # camera's group (not in its scope) exactly as the first epoch put it
    assert all(dep.edge.is_live(r) for r in dep.edge.flow_table)
    (cam_version,) = {r.version for r in cam}
    (plug_version,) = {r.version for r in plug}
    assert cam_version < plug_version == dep.edge.active_version
    assert dep.orchestrator.updater.reports[-1].rules_installed == 5


def test_removal_epoch_drops_only_that_device(dep):
    dep.secure("cam", block_commands("stop"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    dep.orchestrator.unpin("cam")
    dep.orchestrator.apply("cam", ALLOW_ALL)
    dep.run(until=2.0)
    assert dep.edge.rules_for("cam") == []
    assert len(dep.edge.rules_for("plug")) == 5


def test_both_devices_protected_end_to_end(dep):
    dep.secure("cam", block_commands("record"))
    dep.secure("plug", block_commands("on"))
    dep.run(until=1.0)
    attacker = dep.attackers["attacker"]
    attacker.fire_and_forget(protocol.command("attacker", "plug", "on", dport=8080))
    replies = []
    attacker.request(
        protocol.login("attacker", "cam", "admin", "admin"), replies.append
    )
    dep.run(until=3.0)
    assert dep.devices["plug"].state == "off"
    # cam's posture only blocks "record": login still flows through its mbox
    assert len(replies) == 1


# ----------------------------------------------------------------------
# Scoped epochs under concurrency, loss and restarts
# ----------------------------------------------------------------------
#: two tunnel rules (510 ``src=``, so a sender's own µmbox sees its
#: device-to-device traffic first; 500 ``dst=``) and two bypasses
BASE_GROUP = [500, 510, 890, 900]


def live_group(dep, device):
    return [r for r in dep.edge.rules_for(device) if r.owner == device and dep.edge.is_live(r)]


def assert_converged(dep):
    """The table is the desired set: every tunnelled device runs its whole
    group on one epoch, nothing else is installed, nothing is in flight."""
    orchestrator = dep.orchestrator
    for device in orchestrator.attachments:
        group = live_group(dep, device)
        if device not in orchestrator.tunnels:
            assert group == []
            continue
        blind = orchestrator.offloaded.get(device, frozenset())
        offloads = 1 if blind is None else len(blind)
        assert sorted(r.priority for r in group) == sorted(
            BASE_GROUP + [OFFLOAD_PRIORITY] * offloads
        )
        assert len({r.version for r in group}) == 1
    assert all(dep.edge.is_live(rule) for rule in dep.edge.flow_table)  # no stale version
    assert sum(len(live_group(dep, d)) for d in orchestrator.attachments) == dep.edge.table_size()
    assert orchestrator._in_flight == {}
    assert orchestrator.offload_violations() == []


def lossy_fleet(seed, devices=6):
    dep = SecuredDeployment.build(consistent_updates=True, reliable_control=True)
    for i in range(devices):
        dep.add_device(smart_plug if i % 2 else smart_camera, f"dev{i}")
    dep.finalize()
    dep.channel.inject_faults(FaultModel(seed=seed, drop_prob=0.15, jitter=0.008))
    return dep


@pytest.mark.parametrize("seed", range(4))
def test_every_device_runs_one_whole_group_at_every_event_boundary(seed):
    """Bring-up in overlapping rounds, then re-pins, pins and unpins a few
    milliseconds apart (an epoch takes six) over a channel that drops 15%
    and jitters by four latencies.  After every event each tunnelled
    device that has gone live runs exactly one epoch's group: its four
    base rules once each and nothing of another version."""
    dep = lossy_fleet(seed)
    orchestrator = dep.orchestrator
    rng = random.Random(seed)
    names = list(dep.devices)

    def bring_up(batch):
        orchestrator.apply_many(
            [(name, build_recommended_posture("password_proxy", name)) for name in batch]
        )

    def churn():
        name = rng.choice(names)
        action = rng.choice(("repin", "repin", "pin", "unpin"))
        getattr(orchestrator, action)(name)

    dep.sim.schedule_at(0.0, bring_up, names[:2])
    dep.sim.schedule_at(0.003, bring_up, names[2:4])
    dep.sim.schedule_at(0.004, bring_up, names[4:])
    at = 0.005
    for __ in range(30):
        at += rng.uniform(0.0, 0.006)
        dep.sim.schedule_at(at, churn)

    gone_live = set()
    while dep.sim.now < at + 60.0 and dep.sim.step():
        for name in names:
            group = live_group(dep, name)
            if not group and name not in gone_live:
                continue  # its first epoch has not flipped yet
            gone_live.add(name)
            assert len({r.version for r in group}) == 1, (dep.sim.now, name)
            assert sorted(r.priority for r in group if r.priority != OFFLOAD_PRIORITY) == BASE_GROUP
    assert gone_live == set(names)
    assert dep.channel.retries > 0 and dep.channel.giveups == 0
    assert all(report.committed_at is not None for report in orchestrator.updater.reports)
    assert_converged(dep)


def test_repin_while_the_rounds_epoch_is_in_flight_carries_the_round(dep):
    orchestrator = dep.orchestrator
    orchestrator.apply_many(
        [("cam", block_commands("stop")), ("plug", block_commands("on"))]
    )
    assert orchestrator.repin("cam")  # before the round's epoch has even been installed
    first, second = orchestrator.updater.reports[-2:]
    # the plug rides along: the epoch on the wire is a subset of this one
    assert (first.rules_installed, second.rules_installed) == (8, 8)
    dep.run(until=1.0)
    assert {r.version for r in dep.edge.flow_table} == {second.version}
    assert (first.rules_removed, second.rules_removed) == (0, 8)
    assert_converged(dep)
    # once both have committed, a re-pin is that device's group alone
    assert orchestrator.repin("cam")
    dep.run(until=2.0)
    third = orchestrator.updater.reports[-1]
    assert (third.rules_installed, third.rules_removed) == (4, 4)
    assert {r.version for r in dep.edge.rules_for("plug")} == {second.version}
    assert_converged(dep)


def test_a_flow_mod_sent_into_a_partition_lands_after_the_heal():
    dep = SecuredDeployment.build(consistent_updates=True, reliable_control=True)
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.finalize()
    orchestrator = dep.orchestrator
    orchestrator.apply_many([("cam", block_commands("stop")), ("plug", block_commands("on"))])
    dep.run(until=1.0)
    before = live_group(dep, "cam")
    dep.channel.partition(1.0, 2.0, endpoints=(dep.EDGE,))
    assert orchestrator.repin("cam")
    dep.run(until=1.9)
    held = orchestrator.updater.reports[-1]
    assert held.committed_at is None and dep.channel.unacked() == 1
    assert live_group(dep, "cam") == before  # the old group, whole, still runs
    assert list(orchestrator._in_flight) == ["cam"]
    # No give-up: the lane re-sends the install once the switch is back.
    dep.run(until=4.0)
    assert held.committed_at is not None and dep.channel.unacked() == 0
    assert {r.version for r in dep.edge.rules_for("cam")} == {held.version}
    assert orchestrator.repin("plug")
    dep.run(until=5.0)
    assert_converged(dep)


def test_a_push_after_a_controller_restart_continues_the_epochs():
    dep = SecuredDeployment.build(
        consistent_updates=True, reliable_control=True, checkpointing=True, checkpoint_period=1.0
    )
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.finalize()
    dep.secure("plug", block_commands("on"))
    dep.enforce_baseline()
    dep.run(until=2.5)
    orchestrator = dep.orchestrator
    assert orchestrator.repin("cam")  # on the wire when the controller dies
    in_flight = orchestrator.updater.reports[-1]
    dep.crash_controller()
    dep.run(until=3.0)
    assert in_flight.committed_at is not None  # flow-mods outlive the process that sent them
    dep.restart_controller()
    assert dep.orchestrator is orchestrator
    assert orchestrator.repin("plug")
    dep.run(until=4.0)
    after = orchestrator.updater.reports[-1]
    # The restart pushed nothing in between: it keeps the camera's monitor
    # posture rather than flushing a round of default postures.
    assert orchestrator.current["cam"].name == "monitor"
    assert after.version == in_flight.version + 1 and after.committed_at is not None
    assert after.rules_installed == len(live_group(dep, "plug")) == 5
    assert {r.version for r in live_group(dep, "plug")} == {after.version}
    assert {r.version for r in live_group(dep, "cam")} == {in_flight.version}
    assert dep.edge.active_version == after.version
    assert_converged(dep)
