"""Tests for the µmbox lifecycle manager and the monolithic baseline."""

import pytest

from repro.mboxes.base import MboxHost, Verdict
from repro.mboxes.manager import (
    MBOX_KINDS,
    MboxManager,
    MonolithicMiddlebox,
    _thawed,
    build_element,
)
from repro.policy.posture import MboxSpec, Posture, block_commands


@pytest.fixture
def host(sim):
    return MboxHost("cluster", sim)


@pytest.fixture
def manager(sim, host):
    return MboxManager(sim, host, pool_size=2)


def test_all_registered_kinds_buildable(sim, host):
    manager = MboxManager(sim, host, signature_provider=lambda sku: [])
    config_for = {
        "password_proxy": {"new_password": "x"},
        "signature_ids": {"sku": "a:b:1"},
        "context_gate": {"commands": ["on"], "require": {"env:x": "y"}},
    }
    for kind in MBOX_KINDS:
        posture = Posture.make(
            f"p-{kind}", MboxSpec.make(kind, **config_for.get(kind, {}))
        )
        manager.deploy(f"dev-{kind}", posture)
        sim.run()
        assert host.mboxes[f"dev-{kind}"].elements, kind
        manager.teardown(f"dev-{kind}")


def _containers(value, found):
    if isinstance(value, (list, dict)):
        found.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, found)
    return found


@pytest.mark.parametrize("kind", MBOX_KINDS)
def test_elements_keep_no_part_of_the_shared_config(kind):
    """One thawed config serves every element built from a spec, so no
    element may keep (and later edit) a list or dict of it."""
    config_for = {
        "password_proxy": {"new_password": "x"},
        "stateful_firewall": {"trusted_sources": ["hub"], "open_ports": [80]},
        "command_filter": {"deny": ["open"]},
        "command_whitelist": {"allow": ["on"], "allowed_sources": ["hub"]},
        "context_gate": {"commands": ["on"], "require": {"env:x": "y"}},
        "source_filter": {"allowed_sources": ["hub"]},
        "rate_limiter": {"exempt_sources": ["hub"]},
        "dns_guard": {"local_sources": ["hub"]},
    }
    spec = MboxSpec.make(kind, **config_for.get(kind, {}))
    element = build_element(spec, None)
    shared = _thawed(spec)
    assert shared == spec.config_dict() and shared is not spec.config_dict()
    kept = {id(value) for value in vars(element).values()}
    assert not kept & _containers(shared, set())


def test_unknown_kind_rejected(sim, host):
    manager = MboxManager(sim, host)
    with pytest.raises(KeyError):
        manager.deploy("dev", Posture.make("bad", MboxSpec.make("warp_drive")))


def test_pool_hit_is_fast_boot_is_slow(sim, host):
    manager = MboxManager(
        sim, host, pool_size=1, boot_latency=0.030, pool_attach_latency=0.001
    )
    r1 = manager.deploy("dev1", block_commands("open"))
    r2 = manager.deploy("dev2", block_commands("open"))
    assert r1.operation == "pool" and r1.latency == pytest.approx(0.001)
    assert r2.operation == "boot" and r2.latency == pytest.approx(0.030)
    assert manager.pool_hits == 1 and manager.boots == 1


def test_pool_replenishes(sim, host):
    manager = MboxManager(sim, host, pool_size=1, boot_latency=0.030)
    manager.deploy("dev1", block_commands("open"))
    sim.run()  # replenish happens after a boot cycle
    record = manager.deploy("dev2", block_commands("open"))
    assert record.operation == "pool"


def test_mbox_not_ready_until_latency_elapses(sim, host):
    manager = MboxManager(sim, host, pool_size=0, boot_latency=0.030)
    manager.deploy("dev", block_commands("open"))
    assert host.mboxes["dev"].ready is False
    sim.run()
    assert host.mboxes["dev"].ready is True


def test_reconfigure_in_place_no_downtime(sim, host):
    manager = MboxManager(sim, host, pool_size=1)
    manager.deploy("dev", block_commands("open"))
    sim.run()
    record = manager.deploy("dev", block_commands("close", name="other"))
    assert record.operation == "reconfigure"
    assert host.mboxes["dev"].ready is True  # stays serving during swap
    sim.run()
    assert host.mboxes["dev"].kind == "other"
    assert manager.reconfigs == 1


def test_capacity_limit(sim, host):
    manager = MboxManager(sim, host, capacity=2, pool_size=0)
    manager.deploy("a", block_commands("x"))
    manager.deploy("b", block_commands("x"))
    with pytest.raises(RuntimeError):
        manager.deploy("c", block_commands("x"))


def test_teardown_unbinds_and_recycles(sim, host):
    manager = MboxManager(sim, host, pool_size=1, boot_latency=1e6)
    manager.deploy("dev", block_commands("x"))  # consumes the only pooled VM
    manager.teardown("dev")
    assert "dev" not in host.mboxes
    sim.run(until=1.0)  # recycle completes; the slow re-boot has not
    record = manager.deploy("dev2", block_commands("x"))
    assert record.operation == "pool"  # the recycled VM


def test_latency_stats(sim, host):
    manager = MboxManager(sim, host, pool_size=1)
    manager.deploy("a", block_commands("x"))
    manager.deploy("b", block_commands("x"))
    manager.deploy("a", block_commands("y", name="y"))
    stats = manager.latency_stats()
    assert len(stats["pool"]) == 1
    assert len(stats["boot"]) == 1
    assert len(stats["reconfigure"]) == 1


class TestMonolithic:
    def test_restart_causes_downtime(self, sim):
        box = MonolithicMiddlebox(sim, restart_latency=5.0)
        box.apply_config({})
        assert box.ready is False
        sim.run()
        assert box.ready is True
        assert box.downtime_total == pytest.approx(5.0)

    def test_overlapping_restarts_extend_downtime(self, sim):
        box = MonolithicMiddlebox(sim, restart_latency=5.0)
        box.apply_config({})
        sim.schedule(2.0, lambda: box.apply_config({}))
        sim.run()
        assert box.ready is True
        assert box.downtime_total == pytest.approx(7.0)
        assert box.restarts == 2

    def test_downtime_dwarfs_mbox_reconfig(self, sim, host):
        manager = MboxManager(sim, host, pool_size=4)
        box = MonolithicMiddlebox(sim, restart_latency=5.0)
        mono = box.apply_config({})
        micro = manager.deploy("dev", block_commands("x"))
        assert mono.latency > micro.latency * 50


def test_stale_restart_never_binds_over_a_redeploy(sim, host):
    """A teardown and redeploy while a crash restart boots: the restart's
    timer finds its crashed instance gone and binds nothing."""
    manager = MboxManager(sim, host, pool_size=0, boot_latency=1.0)
    manager.deploy("dev", block_commands("x"))
    redeployed = []

    def crash_and_restart():
        assert manager.crash("dev")
        manager._health_sweep()  # restart boots until 2.1

    def teardown_and_redeploy():
        manager.teardown("dev")
        record = manager.deploy("dev", block_commands("x"))
        assert record.ready_at == pytest.approx(2.2)
        redeployed.append(host.mboxes["dev"])

    sim.schedule(1.1, crash_and_restart)
    sim.schedule(1.2, teardown_and_redeploy)
    sim.run(until=2.15)
    fresh = redeployed[0]
    assert host.mboxes["dev"] is fresh and not fresh.ready
    sim.run(until=3.0)
    assert host.mboxes["dev"] is fresh and fresh.ready
    assert fresh.name == "mbox-2"
    assert manager.open_outages() == []  # the teardown ended the outage
    assert not sim.journal.entries(kind="mbox-recovered")
