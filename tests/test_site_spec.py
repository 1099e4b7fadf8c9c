"""One site spec: every home in ``src/`` is a frozen, picklable ``SiteSpec``.

A spec is data: each one ``src/`` builds survives a pickle round trip
equal to itself (that is what a worker process receives), and deploying
one spec twice runs the same journal, byte for byte.
"""

import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.core.deployment import SecuredDeployment, SiteSpec
from repro.faults.campaign import journal_digest
from repro.faults.campaign_library import CAMPAIGN_HOME, build_home
from repro.faults.scenario import (
    CAMERA_HOME,
    HEALTH_SCENARIOS,
    STANDARD_HOME,
    SURVIVABLE_HOME,
    arm_attacked_home,
    arm_failover,
    arm_fig3,
    arm_fig4,
    arm_fig5,
    arm_resilience,
    arm_storm,
    arm_thermal,
    e9_home,
    e9_spec,
    launch_e9_attacks,
    run_federation_blackout_scenario,
    run_fleet_immunity,
)
from repro.federation import shard_fleet
from repro.learning.signatures import default_credential_signature

WIRE = default_credential_signature("dlink:DCS-930L:1.0").to_dict()

#: Every home ``src/`` builds, by the call that builds it.
SRC_HOMES = {
    "resilience": lambda: [arm_resilience(resilient) for resilient in (True, False)],
    "failover": lambda: [arm_failover(standby) for standby in (True, False)],
    "storm": lambda: [arm_storm(shedding) for shedding in (True, False)],
    "attacked": lambda: [arm_attacked_home(durable) for durable in (True, False)],
    "health": lambda: [arm(seed=7) for arm in HEALTH_SCENARIOS.values()],
    "paper": lambda: [
        arm(protect) for arm in (arm_fig3, arm_fig4, arm_fig5, arm_thermal)
        for protect in (True, False)
    ],
    "campaign": lambda: [build_home(health) for health in (True, False)],
    "e9": lambda: [e9_home(6), e9_home(6, 2.0, [WIRE])],
    "fleet": lambda: run_fleet_immunity(2, share=True),
    "blackout": lambda: run_federation_blackout_scenario(sites=2, horizon=10.0),
}


@pytest.fixture
def built_specs(monkeypatch):
    """``built_specs(build)`` -> every spec a deployment was built from."""
    seen = []
    construct = SecuredDeployment.__init__

    def recording(self, spec=SiteSpec(), *args, **kwargs):
        seen.append(spec)
        construct(self, spec, *args, **kwargs)

    monkeypatch.setattr(SecuredDeployment, "__init__", recording)

    def run(build):
        seen.clear()
        build()
        return list(seen)

    return run


@pytest.mark.parametrize("home", sorted(SRC_HOMES))
def test_every_src_spec_pickles_round_trip_equal(built_specs, home):
    specs = built_specs(SRC_HOMES[home])
    assert specs
    for spec in specs:
        assert pickle.loads(pickle.dumps(spec)) == spec


def test_shard_fleet_specs_pickle_round_trip_equal():
    sites = shard_fleet(10, 3, lambda n: e9_spec(n, signatures=[WIRE]))
    assert pickle.loads(pickle.dumps(sites)) == sites


def _run_digest(spec: SiteSpec, until: float = 20.0) -> str:
    dep = spec.deploy()
    if "dev1" in dep.devices:
        launch_e9_attacks(dep)
    dep.run(until=until)
    return journal_digest(dep.sim.journal)


@pytest.mark.parametrize(
    "spec",
    [
        replace(STANDARD_HOME, consistent_updates=True, reliable_control=True),
        replace(e9_spec(8), durable_telemetry=True, checkpointing=True, health=True),
        replace(e9_spec(4, signatures=[WIRE]), standby=True, ha_seed=3),
        CAMPAIGN_HOME,
        CAMERA_HOME,
    ],
    ids=["standard", "e9-planes", "e9-standby", "campaign", "camera"],
)
def test_one_spec_deploys_to_one_digest(spec):
    assert _run_digest(spec) == _run_digest(pickle.loads(pickle.dumps(spec)))


def test_spec_is_frozen_and_checks_its_posture_rule():
    with pytest.raises(FrozenInstanceError):
        STANDARD_HOME.reliable_control = True
    with pytest.raises(ValueError, match="posture rule"):
        SiteSpec(postures="pin-everything")
    assert SiteSpec(attackers=["a"]).attackers == ("a",)


def test_build_keywords_are_the_spec_fields():
    dep = SecuredDeployment.build(reliable_control=True, health_check_period=1.0)
    assert dep.spec == SiteSpec(reliable_control=True, health_check_period=1.0)
    with pytest.raises(TypeError):
        SecuredDeployment.build(channel_latency=0.05)


def test_posture_rules_apply_after_finalize():
    pinned = e9_spec(4).deploy()
    assert pinned.orchestrator.pinned == set(pinned.devices)
    baseline = replace(STANDARD_HOME, postures="baseline").deploy()
    assert {baseline.orchestrator.posture_of(name).name for name in baseline.devices} == {
        "monitor"
    }
    assert not replace(STANDARD_HOME, postures="pin-by-flaw", with_iotsec=False).deploy().cluster


def test_plane_fields_live_only_on_the_spec():
    """The deployment reads its planes from ``dep.spec``; it keeps no copy."""
    fleet = {"devices", "start_telemetry", "attackers", "postures", "signatures"}
    planes = {f.name for f in fields(SiteSpec)} - fleet
    dep = replace(SURVIVABLE_HOME, durable_telemetry=True, standby=True).deploy()
    assert not planes & set(vars(dep))
    assert None not in (dep.host_stream, dep.checkpointer, dep.standby_controller, dep.health_plane)
