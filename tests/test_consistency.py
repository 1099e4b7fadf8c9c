"""Tests for two-phase consistent updates."""

import random

import pytest

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.switch import Switch
from repro.sdn.channel import ControlChannel
from repro.sdn.consistency import ConsistentUpdater
from repro.sdn.flowrule import Action, FlowMatch, FlowRule


def setup(sim, n_switches=2, latency=0.01):
    channel = ControlChannel(sim, latency=latency)
    updater = ConsistentUpdater(sim, channel)
    switches = [Switch(f"sw{i}", sim) for i in range(n_switches)]
    return updater, switches


def drop_rules():
    return [FlowRule(match=FlowMatch(), actions=(Action.drop(),))]


def test_two_phase_flips_all_switches(sim):
    updater, switches = setup(sim)
    report = updater.push_two_phase({sw: drop_rules() for sw in switches})
    sim.run()
    assert report.committed_at is not None
    for sw in switches:
        assert sw.active_version == report.version
        assert sw.table_size() == 1


def test_two_phase_duration_is_three_legs(sim):
    # install (1 latency) + ack (1) + flip (1) = 3 x one-way latency
    updater, switches = setup(sim, latency=0.01)
    report = updater.push_two_phase({sw: drop_rules() for sw in switches})
    sim.run()
    assert abs(report.duration - 0.03) < 1e-9


def test_rules_inactive_until_commit(sim):
    updater, (sw,) = setup(sim, n_switches=1, latency=0.01)
    host_a, host_b = Host("a", sim), Host("b", sim)
    Link(sim, sw, host_a)
    Link(sim, sw, host_b)
    b_port = sw.port_to("b")
    updater.push_two_phase(
        {sw: [FlowRule(match=FlowMatch(dst="b"), actions=(Action.forward(b_port),))]}
    )
    # Before commit (t < 0.03) the rule is installed but not active:
    sim.run(until=0.015)
    host_a.send(Packet(src="a", dst="b"))
    sim.run(until=0.02)
    assert host_b.inbox == []  # version not yet active -> miss -> drop
    sim.run()
    host_a.send(Packet(src="a", dst="b"))
    sim.run()
    assert len(host_b.inbox) == 1


def test_old_epoch_garbage_collected(sim):
    updater, (sw,) = setup(sim, n_switches=1)
    r1 = updater.push_two_phase({sw: drop_rules()})
    sim.run()
    r2 = updater.push_two_phase({sw: drop_rules()})
    sim.run()
    assert sw.active_version == r2.version
    assert all(rule.version == r2.version for rule in sw.flow_table)
    assert r2.rules_removed == 1
    assert r1.version != r2.version


def test_empty_assignment_commits_immediately(sim):
    updater, __ = setup(sim)
    report = updater.push_two_phase({})
    assert report.committed_at == sim.now


def test_on_committed_callback(sim):
    updater, switches = setup(sim)
    done = []
    updater.push_two_phase(
        {sw: drop_rules() for sw in switches}, on_committed=lambda r: done.append(r.version)
    )
    sim.run()
    assert len(done) == 1


def test_best_effort_installs_without_versioning(sim):
    updater, (sw,) = setup(sim, n_switches=1, latency=0.01)
    report = updater.push_best_effort({sw: drop_rules()})
    sim.run()
    assert report.mode == "best-effort"
    assert sw.flow_table[0].version is None
    assert sw.table_size() == 1


def test_best_effort_faster_than_two_phase(sim):
    updater, switches = setup(sim, latency=0.01)
    be = updater.push_best_effort({sw: drop_rules() for sw in switches})
    sim.run()
    tp = updater.push_two_phase({sw: drop_rules() for sw in switches})
    sim.run()
    assert be.duration < tp.duration


class CountingSwitch(Switch):
    """Counts batch installs (each is one table sort + one cache clear)."""

    def __init__(self, name, sim):
        super().__init__(name, sim)
        self.batches = 0

    def install_many(self, rules):
        self.batches += 1
        super().install_many(rules)


def seeded_epoch(n=40, seed=7):
    rng = random.Random(seed)
    return [
        FlowRule(
            match=FlowMatch(
                src=rng.choice([None, "a", "b"]),
                dst=rng.choice([None, "c", "d"]),
                dport=rng.choice([None, 80, 443]),
            ),
            actions=(Action.drop(),),
            priority=rng.choice([100, 500, 890, 900]),
        )
        for __ in range(n)
    ]


@pytest.mark.parametrize("mode", ["push_two_phase", "push_best_effort"])
def test_an_epoch_is_one_batch_install_per_switch(sim, mode):
    channel = ControlChannel(sim, latency=0.01)
    updater = ConsistentUpdater(sim, channel)
    switches = [CountingSwitch(f"sw{i}", sim) for i in range(2)]
    rules = seeded_epoch()
    # The order a rule-by-rule install (sort after every append) yields.
    reference = Switch("ref", sim)
    for rule in rules:
        reference.install(rule)
    getattr(updater, mode)({sw: list(rules) for sw in switches})
    sim.run()
    for sw in switches:
        assert sw.batches == 1
        assert sw.flow_table == reference.flow_table
        assert sw.flow_table == sorted(rules, key=FlowRule.sort_key)
