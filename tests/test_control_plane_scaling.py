"""Scaling guard: control-plane work is O(change), not O(fleet).

Counted, never timed, so the guard is deterministic: building a fleet twice
the size may cost about twice the work -- a device's registration touches
its own policy variables, its own flow rules and its own port -- a
checkpoint tick under an unchanged policy serializes no posture at all,
and it encodes only the view keys, alert windows and postures that
changed since the previous checkpoint.
Quadratic growth (4x for 2x the devices) is what these paths used to do.
"""

from repro.core import ha
from repro.core.deployment import SecuredDeployment
from repro.core.view import GlobalView
from repro.devices.library import smart_plug
from repro.netsim import switch as switch_module
from repro.netsim.link import Link
from repro.netsim.topology import Topology
from repro.policy import serialization
from repro.policy.context import Variable
from repro.policy.posture import block_commands

#: Doubling the fleet may double the work, with room for the binary
#: search's log factor -- nowhere near the 4x of a per-event fleet scan.
LINEAR = 2.3


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` (method or property) to count its uses."""
    calls = [0]
    original = owner.__dict__[name]
    if isinstance(original, property):

        def getter(self):
            calls[0] += 1
            return original.fget(self)

        monkeypatch.setattr(owner, name, original.getter(getter))
    else:

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


def fleet_build_cost(monkeypatch, n):
    with monkeypatch.context() as patch:
        counters = {
            # one per flow-table comparison (install_many's placement); the
            # switch resolves the key function by name at every install
            "switch.table_order": count_calls(patch, switch_module, "table_order"),
            # one per variable a policy round reads from the view
            "GlobalView.get": count_calls(patch, GlobalView, "get"),
            # one per domain a ``StateSpace.domain_of`` scan steps over
            "Variable.key": count_calls(patch, Variable, "key"),
        }
        dep = SecuredDeployment.build()
        dep.manager.capacity = n
        for i in range(n):
            dep.add_device(smart_plug, f"plug{i:03d}")
        dep.finalize()
        for name in dep.devices:  # one posture push, one rule batch, each
            dep.secure(name, block_commands("on"))
        assert dep.edge.table_size() >= n
        return {name: calls[0] for name, calls in counters.items()}


def test_fleet_build_work_grows_linearly(monkeypatch):
    small = fleet_build_cost(monkeypatch, 200)
    large = fleet_build_cost(monkeypatch, 400)
    for name, count in small.items():
        assert count > 0, name
        assert large[name] <= LINEAR * count, (name, count, large[name])


def first_contact_cost(monkeypatch, n):
    """Route from the edge to every device of an n-device home, once each."""
    names = [f"dev{i:03d}" for i in range(n)]
    topo = Topology.smart_home(names)
    with monkeypatch.context() as patch:
        builds = count_calls(patch, Topology, "_build_adjacency")
        # one per Link a routing computation looks at
        visited = count_calls(patch, Link, "up")
        ports = [topo.next_hop_port("edge", name) for name in names]
        assert len(set(ports)) == n and None not in ports
        topo.links[-1].fail()  # a flap charges one rebuild, not one per device
        ports = [topo.next_hop_port("edge", name) for name in names]
        assert ports.count(None) == 1
        return {"builds": builds[0], "links visited": visited[0]}


def test_first_contact_with_a_site_grows_linearly(monkeypatch):
    small = first_contact_cost(monkeypatch, 200)
    large = first_contact_cost(monkeypatch, 400)
    assert small["builds"] == large["builds"] == 2  # once per fingerprint
    assert small["links visited"] >= 200
    assert large["links visited"] <= 2.2 * small["links visited"], (small, large)


def test_steady_state_checkpoint_tick_serializes_no_posture(monkeypatch):
    dep = SecuredDeployment.build(checkpointing=True, checkpoint_period=1.0)
    for i in range(20):
        dep.add_device(smart_plug, f"plug{i:02d}")
    dep.finalize()
    dep.secure("plug00", block_commands("on"))
    dep.run(until=1.5)  # the first tick serializes the policy once
    calls = count_calls(monkeypatch, serialization, "posture_to_dict")
    dep.run(until=4.5)
    assert dep.checkpoint_store.captured == 4
    assert calls[0] == 0
    digests = {e.fields["digest"] for e in dep.sim.journal.entries(kind="checkpoint")}
    assert len(digests) == 4  # the ticks still checkpoint (distinct ``at``)


def checkpoint_tick_encodes(monkeypatch, n, k=5):
    """``canonical_json`` calls, and the characters they return, in the
    one checkpoint tick that follows ``k`` context changes and ``k``
    alerts on an ``n``-device site."""
    dep = SecuredDeployment.build(checkpointing=True, checkpoint_period=1.0)
    dep.manager.capacity = n
    for i in range(n):
        dep.add_device(smart_plug, f"plug{i:03d}")
    dep.finalize()
    dep.run(until=1.5)  # the first tick encodes every entry once
    for i in range(k):
        dep.controller.set_context(f"plug{i:03d}", "suspicious")
        dep.channel.send(
            dep.CLUSTER,
            dep.CONTROLLER,
            "alert",
            {"device": f"plug{n - 1 - i:03d}", "kind": "login-attempt", "detail": {}},
        )
    encoded = [0, 0]
    original = serialization.canonical_json

    def counted(value):
        text = original(value)
        encoded[0] += 1
        encoded[1] += len(text)
        return text

    with monkeypatch.context() as patch:
        # ha.py holds its own name for it; the serialization helpers use
        # the module's
        for module in (serialization, ha):
            patch.setattr(module, "canonical_json", counted)
        dep.run(until=2.5)
    assert dep.checkpoint_store.captured == 2
    latest = dep.checkpoint_store.latest()
    assert len(latest.view) > 2 * n and len(latest.postures) == n
    assert sum(name != "allow" for __, name in latest.postures) == k
    assert len(latest.escalations) == k
    return tuple(encoded)


def test_checkpoint_tick_encodes_only_what_changed(monkeypatch):
    """A section encoded whole is one call whatever its size, so the
    characters encoded are counted too: both are set by the k changes."""
    small = checkpoint_tick_encodes(monkeypatch, 200)
    large = checkpoint_tick_encodes(monkeypatch, 400)
    assert small == large, (small, large)
    calls, characters = small
    # a handful of scalar sections plus one fragment per changed view
    # key, window and posture
    assert 0 < calls <= 30 and characters < 1000, small
