"""Tests for the federated control plane (:mod:`repro.federation`).

Covers the coordinator's ingress (contiguous versions, dedup, poisoning
quarantine through the DLQ), the site sync state machine (first-sync
requirement, autonomy journaling, in-order catch-up after a WAN heal, a
cursor that never skips a version, updates only from the coordinator),
the coordinator push/pull propagation paths, the federation health probe,
the parallel site runner, and the seeded coordinator blackout scenario's
zero-enforcement-gap guarantee.
"""

from dataclasses import replace
from functools import partial

import pytest

import repro.federation
from repro.core.deployment import DeviceSpec, SiteSpec
from repro.devices.library import smart_camera, smart_plug
from repro.faults.scenario import (
    arm_federation_blackout,
    e9_spec,
    horizon_of,
    measure_federation_blackout,
    run_federation_blackout_scenario,
    run_fleet_immunity,
)
from repro.federation import Federation, run_federation, shard_fleet
from repro.learning.signatures import (
    backdoor_signature,
    default_credential_signature,
)
from repro.obs.health import HEALTH_CRITICAL, HEALTH_DEGRADED
from repro.sdn.channel import FaultModel

SKU = "dlink:DCS-930L:1.0"


def make_federation(sites=2, sync_period=5.0, devices=("cam", "plug")):
    fed = Federation(sync_period=sync_period)
    factories = {"cam": smart_camera, "plug": smart_plug}
    spec = SiteSpec(
        devices=tuple(
            DeviceSpec(factories[name], name, {"report_to": "hub"})
            for name in ("cam", "plug")
            if name in devices
        )
    )
    for i in range(sites):
        fed.add_site(f"site{i}", spec)
    return fed


# ---------------------------------------------------------------------------
# The coordinator's ingress
# ---------------------------------------------------------------------------


def ingress():
    """A siteless coordinator, and ``report(wire, origin)``: one
    ``sig-report`` over the WAN, returning the log's version after it."""
    fed = Federation()
    coordinator = fed.coordinator

    def report(wire, origin="site:a"):
        fed.wan.send(origin, coordinator.NAME, "sig-report", {"signature": wire})
        fed.run(until=fed.sim.now + 1.0)
        return coordinator.repository.version

    return coordinator, report


class TestCoordinatorIngress:
    def test_versions_are_contiguous_from_one(self):
        coordinator, report = ingress()
        v1 = report(default_credential_signature(SKU).to_dict(), origin="a")
        v2 = report(backdoor_signature(SKU, 4000).to_dict(), origin="b")
        assert (v1, v2) == (1, 2)
        assert [s.flaw_class for s in coordinator.repository.log] == [
            "exposed-credentials",
            "backdoor",
        ]

    def test_rediscovery_dedups_without_consuming_a_version(self):
        coordinator, report = ingress()
        wire = default_credential_signature(SKU).to_dict()
        assert report(wire, origin="east") == 1
        assert report(wire, origin="west") == 1
        assert coordinator.repository.duplicates == 1

    @pytest.mark.parametrize(
        "wire, reason_prefix",
        [
            ("not-a-dict", "malformed"),
            ({}, "malformed"),
            ({"sku": ""}, "malformed"),
        ],
    )
    def test_malformed_wires_are_quarantined(self, wire, reason_prefix):
        coordinator, report = ingress()
        assert report(wire, origin="evil") == 0
        assert coordinator.dlq.quarantined == 1
        assert any(r.startswith(reason_prefix) for r in coordinator.dlq.by_reason)

    def test_poisoned_posture_never_enters_the_log(self):
        coordinator, report = ingress()
        wire = default_credential_signature(SKU).to_dict()
        wire["recommended_posture"] = "open_all_ports"
        assert report(wire, origin="evil") == 0
        assert coordinator.dlq.quarantined == 1
        assert any("poisoned" in r for r in coordinator.dlq.by_reason)

    def test_out_of_range_confidence_is_poisoned(self):
        coordinator, report = ingress()
        wire = default_credential_signature(SKU).to_dict()
        wire["confidence"] = 5.0
        assert report(wire, origin="evil") == 0
        assert coordinator.dlq.quarantined == 1

    def test_updates_since_replays_the_exact_suffix(self):
        coordinator, report = ingress()
        report(default_credential_signature(SKU).to_dict())
        report(backdoor_signature(SKU, 4000).to_dict())
        report(backdoor_signature(SKU, 4001).to_dict())
        repo = coordinator.repository
        assert repo.updates_since(0) == repo.log and len(repo.log) == 3
        assert [s.match.dport for s in repo.updates_since(2)] == [4001]
        assert repo.updates_since(3) == []
        assert repo.updates_since(99) == []

    def test_poisoned_update_cannot_wedge_a_replay_cursor(self):
        """A rejected wire consumes no version, so the suffix a site pulls
        after the poison attempt is exactly the clean log."""
        coordinator, report = ingress()
        report(default_credential_signature(SKU).to_dict())
        bad = default_credential_signature(SKU).to_dict()
        bad["recommended_posture"] = "root_shell"
        bad["flaw_class"] = "bait"
        report(bad, origin="evil")
        assert report(backdoor_signature(SKU, 4000).to_dict(), origin="b") == 2
        assert [s.match.dport for s in coordinator.repository.updates_since(1)] == [4000]


# ---------------------------------------------------------------------------
# Sites + coordinator on the shared sim
# ---------------------------------------------------------------------------


class TestFederationSync:
    def test_mined_signature_reaches_every_site_in_one_wan_hop(self):
        fed = make_federation(sites=3)
        fed.start()
        sku = fed.sites["site0"].dep.devices["cam"].sku
        fed.sim.schedule(
            10.0,
            lambda: fed.sites["site0"].mined(
                default_credential_signature(sku).to_dict()
            ),
        )
        fed.run(until=20.0)
        assert fed.coordinator.repository.version == 1
        assert fed.coordinator.converged()
        assert all(s.version == 1 for s in fed.sites.values())
        # report hop + push hop, each one WAN latency
        assert fed.propagation_lag(1) == pytest.approx(0.040, abs=1e-6)

    def test_first_sync_required_before_autonomy(self):
        """A site partitioned from birth never completes its first sync,
        so it cannot claim autonomous enforcement -- it has no cached
        policy to enforce."""
        fed = make_federation(sites=2)
        fed.blackout(0.0, 30.0)
        fed.start()
        fed.run(until=20.0)
        site = fed.sites["site0"]
        assert not site.first_synced
        assert not site.autonomous
        assert not site.enforcing
        assert fed.sim.journal.entries(kind="site-autonomy-enter") == []

    def test_first_sync_completes_after_heal(self):
        fed = make_federation(sites=2)
        fed.blackout(0.0, 30.0)
        fed.start()
        fed.run(until=40.0)
        assert all(s.first_synced for s in fed.sites.values())

    def test_mined_while_presync_queues_until_first_sync(self):
        fed = make_federation(sites=2)
        fed.blackout(0.0, 30.0)
        fed.start()
        sku = fed.sites["site0"].dep.devices["cam"].sku
        fed.sim.schedule(
            5.0,
            lambda: fed.sites["site0"].mined(
                default_credential_signature(sku).to_dict()
            ),
        )
        fed.run(until=25.0)
        assert fed.wan.unacked() == 1  # held on site0's lane, not sent into the dark
        assert fed.coordinator.repository.version == 0
        fed.run(until=45.0)
        assert fed.wan.unacked() == 0
        assert fed.coordinator.repository.version == 1
        assert fed.coordinator.converged()

    def test_autonomy_spell_is_journaled_with_duration(self):
        fed = make_federation(sites=2)
        fed.start()
        fed.blackout(20.0, 40.0)
        fed.run(until=60.0)
        enters = fed.sim.journal.entries(kind="site-autonomy-enter")
        exits = fed.sim.journal.entries(kind="site-autonomy-exit")
        assert len(enters) == 2 and len(exits) == 2
        for entry in exits:
            assert entry.fields["offline_s"] == pytest.approx(20.0, abs=1.0)
        assert all(s.autonomy_spells == 1 for s in fed.sites.values())
        assert all(not s.autonomous for s in fed.sites.values())

    def test_sites_keep_enforcing_during_blackout(self):
        fed = make_federation(sites=2)
        fed.start()
        fed.blackout(10.0, 50.0)
        seen = {}
        fed.sim.schedule(
            30.0,
            lambda: seen.update(
                {name: site.enforcing for name, site in fed.sites.items()}
            ),
        )
        fed.run(until=40.0)
        assert seen and all(seen.values())

    def test_heal_replays_missed_updates_in_order(self):
        """Updates published while a site is dark arrive on the first
        post-heal sync as a strictly ascending version suffix."""
        fed = make_federation(sites=2)
        fed.start()
        sku = fed.sites["site0"].dep.devices["cam"].sku
        # site1 alone goes dark; site0 keeps publishing.
        fed.wan.partition(10.0, 40.0, endpoints=[fed.sites["site1"].endpoint])
        wires = [
            default_credential_signature(sku).to_dict(),
            backdoor_signature(sku, 4000).to_dict(),
            backdoor_signature(sku, 4001).to_dict(),
        ]
        for i, wire in enumerate(wires):
            fed.sim.schedule(15.0 + 5.0 * i, fed.sites["site0"].mined, wire)
        fed.run(until=60.0)
        site1 = fed.sites["site1"]
        assert site1.version == 3
        assert site1.out_of_order == 0
        assert fed.coordinator.converged()
        syncs = [
            e
            for e in fed.sim.journal.entries(kind="signature-sync")
            if e.fields["site"] == "site1" and e.fields["applied"]
        ]
        assert syncs, "the catch-up sync must be journaled"
        assert syncs[-1].fields["to_version"] == 3

    def test_a_lost_push_never_advances_the_cursor_past_it(self):
        """With 30% WAN loss, a push can miss a site while the next one
        arrives.  The site applies only its next version, so the periodic
        pull refills the hole instead of the cursor jumping over it."""
        fed = make_federation(sites=3)
        fed.wan.inject_faults(FaultModel(seed=4, drop_prob=0.3))
        fed.start()
        site0 = fed.sites["site0"]
        sku = site0.dep.devices["cam"].sku
        wires = [
            default_credential_signature(sku).to_dict(),
            backdoor_signature(sku, 4000).to_dict(),
            backdoor_signature(sku, 4001).to_dict(),
        ]
        for at, wire in zip((10.0, 10.5, 11.0), wires):
            fed.sim.schedule(at, site0.mined, wire)
        fed.run(until=120.0)
        version = fed.coordinator.repository.version
        assert version == 3
        assert fed.coordinator.converged()
        for site in fed.sites.values():
            assert sorted(site.applied_at) == list(range(1, version + 1)), site.name
            assert len(site.cache.signatures) == version, site.name
        assert sum(s.gaps for s in fed.sites.values()) > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_no_mined_signature_is_lost_to_wan_loss(self, seed):
        """30% WAN loss on twelve seeds: every report rides site0's reliable
        lane, so the coordinator versions all three signatures and every
        site converges to version 3 -- ``converged()`` never reads True
        over a report that never left its site."""
        fed = make_federation(sites=3)
        fed.wan.inject_faults(FaultModel(seed=seed, drop_prob=0.3))
        fed.start()
        site0 = fed.sites["site0"]
        sku = site0.dep.devices["cam"].sku
        wires = [
            default_credential_signature(sku).to_dict(),
            backdoor_signature(sku, 4000).to_dict(),
            backdoor_signature(sku, 4001).to_dict(),
        ]
        for at, wire in zip((10.0, 10.5, 11.0), wires):
            fed.sim.schedule(at, site0.mined, wire)
        fed.run(until=120.0)
        assert fed.coordinator.repository.version == 3
        assert [site.version for site in fed.sites.values()] == [3, 3, 3]
        assert fed.coordinator.converged() and fed.wan.unacked() == 0

    def test_updates_from_a_peer_site_are_refused(self):
        """A peer forging a far-future, poisoned push must neither enter the
        cache nor move the cursor -- the real v1 still applies."""
        fed = make_federation(sites=3)
        fed.start()
        site1, site2 = fed.sites["site1"], fed.sites["site2"]
        sku = site2.dep.devices["cam"].sku
        forged = default_credential_signature(sku).to_dict()
        forged["recommended_posture"] = "open_all_ports"
        fed.sim.schedule(
            5.0,
            lambda: fed.wan.send(
                site1.endpoint, site2.endpoint, "sig-push", {"version": 99, "signature": forged}
            ),
        )
        fed.sim.schedule(
            10.0, fed.sites["site0"].mined, default_credential_signature(sku).to_dict()
        )
        fed.run(until=20.0)
        assert site2.version == 1
        assert [s.recommended_posture for s in site2.cache.log] == ["password_proxy"]
        assert fed.coordinator.converged()
        assert site2.refused == 1 and site2.snapshot()["refused"] == 1
        (refusal,) = fed.sim.journal.entries(kind="signature-refused")
        assert refusal.fields["site"] == "site2"
        assert refusal.fields["sender"] == site1.endpoint

    def test_duplicate_site_name_rejected(self):
        fed = make_federation(sites=1)
        with pytest.raises(ValueError, match="duplicate"):
            fed.add_site("site0")


class TestFederationHealth:
    def test_probe_critical_until_first_sync(self):
        fed = make_federation(sites=2)
        fed.blackout(0.0, 30.0)
        fed.attach_health(period=1.0)
        fed.start()
        fed.run(until=10.0)
        assert fed.health_plane.health.state_of("federation") == HEALTH_CRITICAL

    def test_probe_degraded_during_autonomy_then_recovers(self):
        fed = make_federation(sites=2)
        fed.attach_health(period=1.0)
        fed.start()
        fed.blackout(20.0, 40.0)
        states = {}
        fed.sim.schedule(
            30.0,
            lambda: states.update(
                mid=fed.health_plane.health.state_of("federation")
            ),
        )
        fed.run(until=60.0)
        assert states["mid"] == HEALTH_DEGRADED
        assert fed.health_plane.health.state_of("federation") == "ok"
        transitions = [
            e.fields
            for e in fed.sim.journal.entries(kind="health")
            if e.fields.get("subsystem") == "federation"
        ]
        assert any(t["to_state"] == "degraded" for t in transitions)
        assert any(t["to_state"] == "ok" for t in transitions)


# ---------------------------------------------------------------------------
# The parallel runner
# ---------------------------------------------------------------------------


class TestRunner:
    def test_shard_fleet_splits_near_equal(self):
        specs = shard_fleet(10, 4)
        assert [len(s.devices) for s in specs.values()] == [3, 3, 2, 2]
        assert list(specs) == ["site0", "site1", "site2", "site3"]
        assert specs["site3"] == e9_spec(2)

    def test_shard_fleet_rejects_zero_sites(self):
        with pytest.raises(ValueError):
            shard_fleet(10, 0)

    def test_shard_fleet_rejects_a_fleet_without_devices(self):
        with pytest.raises(ValueError, match="at least 1 device"):
            shard_fleet(-5, 4)

    def test_serial_federation_aggregates_per_site_results(self):
        out = run_federation(shard_fleet(12, 3), horizon=30.0, workers=1)
        assert out["mode"] == "serial"
        assert out["sites"] == 3
        assert out["devices"] == 12
        assert out["events"] == sum(r["events"] for r in out["per_site"])
        assert out["attacks_launched"] == 6
        assert out["attacks_blocked"] == 6
        assert out["compromised"] == 0

    def test_parallel_workers_match_serial_results(self):
        specs = shard_fleet(8, 2)
        serial = run_federation(specs, horizon=30.0, workers=1)
        parallel = run_federation(specs, horizon=30.0, workers=2)
        assert parallel["mode"] != "serial"
        assert parallel["events"] == serial["events"]
        assert parallel["attacks_blocked"] == serial["attacks_blocked"]
        assert parallel["compromised"] == serial["compromised"]

    def test_planes_on_digests_match_at_any_worker_count(self):
        """Any plane set rides the spec into the workers, and a site runs
        the same journal in-process and forked."""

        def planes_on(n):
            return replace(
                e9_spec(n),
                consistent_updates=True,
                reliable_control=True,
                durable_telemetry=True,
                checkpointing=True,
                health=True,
            )

        def digests(sites, workers):
            out = run_federation(sites, horizon=60.0, workers=workers)
            return {r["site"]: r["journal_sha256"] for r in out["per_site"]}

        sites = shard_fleet(10, 3, planes_on)
        serial = digests(sites, workers=1)
        assert digests(sites, workers=2) == serial
        assert len(set(serial.values())) == 2  # 4, 3 and 3 devices
        assert serial != digests(shard_fleet(10, 3), workers=1)

    def test_seeded_signatures_ride_into_workers(self):
        wire = default_credential_signature(SKU).to_dict()
        specs = shard_fleet(4, 2, partial(e9_spec, signatures=[wire]))
        out = run_federation(specs, horizon=10.0, workers=1)
        assert all(r["cached_signatures"] == 1 for r in out["per_site"])


# ---------------------------------------------------------------------------
# The seeded coordinator-blackout scenario (satellite 5)
# ---------------------------------------------------------------------------


class TestBlackoutScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return run_federation_blackout_scenario(sites=4)

    def test_zero_enforcement_gaps_during_blackout(self, scenario):
        assert scenario["enforcement_gaps"] == 0, scenario["gap_details"]

    def test_only_patient_zero_is_compromised(self, scenario):
        assert scenario["patient_zero_compromised"]
        assert scenario["attacks_launched"] == 4
        assert scenario["attacks_blocked"] == 3

    def test_signature_updates_replay_in_order_on_heal(self, scenario):
        assert scenario["out_of_order"] == 0
        assert scenario["pending_after"] == 0
        assert scenario["converged"]
        assert scenario["signatures_propagated"] == 2

    def test_poisoned_report_is_quarantined_not_versioned(self, scenario):
        assert scenario["dlq_quarantined"] == 1
        assert scenario["signatures_propagated"] == 2

    def test_every_site_journals_its_autonomy_spell(self, scenario):
        assert scenario["autonomy_enters"] == 4
        assert scenario["autonomy_exits"] == 4
        assert scenario["offline_s"] == pytest.approx(240.0, abs=2.0)

    def test_propagation_lag_is_two_wan_hops(self, scenario):
        assert scenario["propagation_lag_v1"] == pytest.approx(0.040, abs=1e-6)

    def test_every_cache_replays_the_log_in_version_order(self, monkeypatch):
        built = []

        class Recorded(Federation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(repro.federation, "Federation", Recorded)
        run_federation_blackout_scenario(sites=4)
        (fed,) = built
        keys = [s.key() for s in fed.coordinator.repository.log]
        assert len(keys) == 2
        for site in fed.sites.values():
            assert [s.key() for s in site.cache.log] == keys, site.name

    def test_scenario_is_deterministic(self, scenario):
        again = run_federation_blackout_scenario(sites=4)
        for key in (
            "events",
            "attacks_blocked",
            "enforcement_gaps",
            "signatures_propagated",
            "dlq_quarantined",
            "autonomy_enters",
            "autonomy_exits",
            "offline_s",
        ):
            assert again[key] == scenario[key], key

    def test_an_attack_before_the_first_sync_is_an_enforcement_gap(self):
        fed, runners = armed = arm_federation_blackout(sites=3)
        fed.run(until=horizon_of(armed))
        fed.sites["site1"].first_synced_at = 50.0  # after site1's attack at t=46
        out = measure_federation_blackout(*armed)
        assert out["gap_details"] == ["site1: not enforcing mid-blackout"]

    def test_rejects_single_site(self):
        with pytest.raises(ValueError, match="at least 2"):
            run_federation_blackout_scenario(sites=1)


def test_fleet_immunity_rejects_a_fleet_without_sites():
    """E11's fleet shares one simulator, not the federation, but it is the
    other multi-site scenario: it needs a site to attack."""
    with pytest.raises(ValueError, match="at least 1 site"):
        run_fleet_immunity(0, True)
