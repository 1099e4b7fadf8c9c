"""The controller seam: one construction site, one adoption path.

Every controller incarnation -- first boot, cold restart, standby
takeover -- is built by ``SecuredDeployment.new_controller`` and adopted
by ``SecuredDeployment._bind``, so all three must leave the site in the
same shape.  The AST checks keep a second construction site (or a second
``Campaign`` model) from growing back.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.core import ha
from repro.core.deployment import SecuredDeployment
from repro.core.overload import IngestConfig
from repro.devices.library import smart_camera, smart_plug

SRC = Path(repro.__file__).resolve().parent


@pytest.fixture
def checkpointers(monkeypatch):
    """Every ``Checkpointer`` constructed during the test, in order."""
    created = []
    real_init = ha.Checkpointer.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(ha.Checkpointer, "__init__", recording_init)
    return created


def build(standby, ingest):
    dep = SecuredDeployment.build(
        consistent_updates=True,
        reliable_control=True,
        checkpointing=True,
        checkpoint_period=1.0,
        standby=standby,
        ingest=IngestConfig() if ingest else None,
    )
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.finalize()
    dep.enforce_baseline()
    return dep


def first_boot(standby, ingest):
    dep = build(standby, ingest)
    return dep, dep.controller


def restart(standby, ingest):
    dep = build(standby, ingest)
    dep.run(until=2.5)
    dep.crash_controller()
    return dep, dep.restart_controller()


def restart_without_crash(standby, ingest):
    dep = build(standby, ingest)
    dep.run(until=2.5)
    return dep, dep.restart_controller()


def takeover(standby, ingest):
    dep = build(standby, ingest)
    dep.sim.schedule_at(2.5, dep.crash_controller)
    dep.run(until=6.0)
    return dep, dep.standby_controller.promoted


@pytest.mark.parametrize("ingest", [False, True], ids=["direct", "ingest-queue"])
@pytest.mark.parametrize(
    "incarnate, standby",
    [
        (first_boot, False),
        (first_boot, True),
        (restart, False),
        (restart_without_crash, False),
        (takeover, True),
    ],
)
def test_every_incarnation_is_bound_the_same_way(
    incarnate, standby, ingest, checkpointers
):
    dep, controller = incarnate(standby, ingest)
    assert controller is not None and not controller.crashed
    assert dep.controller is controller
    assert (controller.ingest is not None) == ingest
    live = [cp for cp in checkpointers if cp._stops]
    assert live == [dep.checkpointer]
    assert dep.checkpointer.controller is controller
    assert dep.checkpointer.store is dep.checkpoint_store
    # Only first boot replicates: after a restart or a takeover the
    # standby seat is empty, so the loop is local (no channel, no beat).
    replicating = incarnate is first_boot and standby
    assert (dep.checkpointer.channel is not None) == replicating
    assert (dep.checkpointer.standby == dep.STANDBY) == replicating
    assert len(dep.checkpointer._stops) == (2 if replicating else 1)


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_one_controller_construction_site():
    sites = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "IoTSecController"
    ]
    assert len(sites) == 1 and sites[0].startswith("core/deployment.py"), sites


def test_one_campaign_class():
    classes = [
        str(path.relative_to(SRC))
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "Campaign"
    ]
    assert classes == ["faults/campaign.py"]
