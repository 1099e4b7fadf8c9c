"""Blind flows: what a pinned chain declares it neither judges nor
remembers is offloaded at the edge -- and nothing else ever is.

Four layers of evidence, cheapest first:

- the **contract** every element kind is held to: a declared-blind packet
  comes back ``PASS``, the same object, with no alert, no journal entry and
  no change to the element (``StatefulFirewall``'s one exemption -- the
  conntrack entry it writes -- is proved never to be read);
- **unit tests** of the rule scheme: device-to-device traffic still visits
  the destination's µmbox, a forged source still tunnels, every way a pin
  ends withdraws the rules before the next chain is bound, and a crashed
  µmbox fails closed for what it inspects while blind flows keep flowing;
- a **differential** run of the E9 home and the whole E16 campaign library
  with the derivation switched off: every verdict, alert, delivery, view
  entry and scorecard field is identical, only the hop count is lower;
- the **run-level invariant** (``offload_violations``) at the end of each.
"""

from __future__ import annotations

import copy
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import OFFLOAD_PRIORITY, build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.faults.campaign_library import CAMPAIGNS, arm_campaign, measure_campaign
from repro.mboxes.base import MboxContext, Verdict
from repro.mboxes.firewall import StatefulFirewall
from repro.mboxes.manager import MBOX_KINDS, blind_peers, build_element
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.policy.posture import ALLOW_ALL, MboxSpec, Posture, block_commands
from repro.sdn.flowrule import Action, FlowMatch, FlowRule
from tests.test_hot_path_equivalence import build_e9_small

DEVICE = "dev"
PEERS = ("hub", "controller", "cloud", "attacker", "plug", "collector")
TRUSTED = frozenset({"hub", "controller"})

#: A representative configuration per registered kind (kinds absent here
#: are built from their defaults).
KIND_CONFIG = {
    "password_proxy": {"new_password": "S3cure!gateway"},
    "stateful_firewall": {"trusted_sources": sorted(TRUSTED), "open_ports": [80]},
    "command_filter": {"deny": ["open"]},
    "command_whitelist": {"allow": ["on"], "allowed_sources": ["hub"]},
    "context_gate": {"commands": ["on"], "require": {"env:occupancy": "present"}},
    "source_filter": {"allowed_sources": ["hub"]},
    "rate_limiter": {"rate": 0.5, "burst": 1.0},
    "anomaly_gate": {"device": DEVICE},
}
#: The kinds that declare blindness, and to what.  Everything else in
#: ``MBOX_KINDS`` must declare nothing: a tap, a logger, an IDS, an anomaly
#: profile and a DNS guard all read or remember device-originated traffic.
DECLARED = {
    "password_proxy": None,
    "rate_limiter": None,
    "command_filter": None,
    "command_whitelist": None,
    "context_gate": None,
    "source_filter": None,
    "login_monitor": None,
    "stateful_firewall": TRUSTED,
}

PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "action": st.sampled_from(["login", "telemetry", "get", "reply", "query"]),
        "cmd": st.sampled_from(["on", "off", "open", "stop", "unlock"]),
        "username": st.sampled_from(["admin", "root"]),
        "password": st.sampled_from(["admin", "S3cure!gateway", ""]),
        "state": st.sampled_from(["on", "off"]),
        "readings": st.dictionaries(st.sampled_from(["temp", "power"]), st.floats(0, 99)),
        "name": st.sampled_from(["example.com", "x" * 80]),
    },
)
PORTS = st.sampled_from([0, 53, 80, 8080, 5683, 49153]) | st.integers(0, 65535)


def directed(packet, direction):
    packet.direction = direction
    return packet


def packets(src, dst, direction):
    """Packets as the host hands them to a chain: direction already marked."""
    return st.builds(
        Packet,
        src=src,
        dst=dst,
        protocol=st.sampled_from(["tcp", "udp", "http", "dns", "iot"]),
        sport=PORTS,
        dport=PORTS,
        payload=PAYLOADS,
        size=st.integers(1, 1500),
    ).map(lambda packet: directed(packet, direction))


def context(sim, alerts):
    return MboxContext(
        sim=sim,
        mbox_name="mbox-test",
        device=DEVICE,
        view=lambda key: None,
        emit_alert=alerts.append,
    )


def element_of(kind):
    return build_element(MboxSpec.make(kind, **KIND_CONFIG.get(kind, {})), None)


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------
def test_every_declaring_kind_is_registered():
    assert set(DECLARED) <= set(MBOX_KINDS) and set(KIND_CONFIG) <= set(MBOX_KINDS)


@pytest.mark.parametrize("kind", MBOX_KINDS)
def test_element_keeps_its_declared_blindness(kind):
    blind = element_of(kind).blind_peers
    assert blind == DECLARED.get(kind, frozenset())
    if blind == frozenset():
        return  # declares nothing: nothing is ever offloaded on its account
    peers = st.sampled_from(PEERS if blind is None else sorted(blind))
    sim, alerts = Simulator(), []
    ctx = context(sim, alerts)

    @settings(max_examples=50, deadline=None)
    @given(
        warmup=st.lists(packets(st.sampled_from(PEERS), st.just(DEVICE), "to_device"), max_size=4),
        packet=packets(st.just(DEVICE), peers, "from_device"),
    )
    def check(warmup, packet):
        element = element_of(kind)
        for inbound in warmup:  # so there is state to disturb
            element.process(inbound, ctx)
        # the firewall's conntrack write is its one exemption, proved
        # harmless by the test below
        before = {k: copy.deepcopy(v) for k, v in vars(element).items() if k != "tracker"}
        seen, journaled = len(alerts), sim.journal.recorded
        fields = (packet.payload.copy(), packet.direction, packet.dport, packet.dst)
        verdict, returned = element.process(packet, ctx)
        assert verdict is Verdict.PASS and returned is packet
        assert (packet.payload, packet.direction, packet.dport, packet.dst) == fields
        assert len(alerts) == seen and sim.journal.recorded == journaled
        assert {k: v for k, v in vars(element).items() if k != "tracker"} == before

    check()


FIREWALL_SIM = Simulator()


@settings(max_examples=120, deadline=None)
@given(
    trusted=st.sets(st.sampled_from(PEERS), min_size=1),
    open_ports=st.sets(st.sampled_from([53, 80, 8080])),
    default=st.sampled_from(["drop", "pass"]),
    data=st.data(),
)
def test_firewall_never_reads_the_conntrack_entry_toward_a_trusted_peer(
    trusted, open_ports, default, data
):
    """Two firewalls, one shown an outbound packet to a trusted peer and one
    not, agree on every later inbound packet -- the exact reply included."""
    ctx = context(FIREWALL_SIM, [])
    shown, spared = (
        StatefulFirewall(trusted_sources=trusted, open_ports=open_ports, default=default)
        for __ in range(2)
    )
    assert shown.blind_peers == trusted
    outbound = data.draw(packets(st.just(DEVICE), st.sampled_from(sorted(trusted)), "from_device"))
    shown.process(outbound, ctx)
    anything = packets(st.sampled_from(PEERS), st.just(DEVICE), "to_device")
    replies = anything.map(
        lambda p: p.copy(protocol=outbound.protocol, sport=outbound.dport, dport=outbound.sport)
    )
    inbound = data.draw(st.lists(anything | replies, max_size=8))
    for packet in inbound:
        assert shown.process(packet, ctx)[0] is spared.process(packet.copy(), ctx)[0]
    assert shown.blocked == spared.blocked


def test_firewall_does_read_the_entry_toward_anyone_else():
    """The exemption is exactly as wide as declared: an outbound packet to
    an untrusted peer is what admits that peer's reply."""
    sim, alerts = Simulator(), []
    firewall = StatefulFirewall(trusted_sources=TRUSTED)
    outbound = directed(Packet(DEVICE, "cloud", sport=4000, dport=443), "from_device")
    reply = outbound.reply()
    reply.direction = "to_device"
    assert firewall.process(reply, context(sim, alerts))[0] is Verdict.DROP
    firewall.process(outbound, context(sim, alerts))
    assert firewall.process(reply, context(sim, alerts))[0] is Verdict.PASS


def test_posture_blind_set_is_the_intersection_over_its_modules():
    proxy = build_recommended_posture("password_proxy", "cam")
    firewall = build_recommended_posture("stateful_firewall", "plug", trusted_sources=TRUSTED)
    narrower = MboxSpec.make("stateful_firewall", trusted_sources=["hub", "phone"])
    assert blind_peers(proxy) is None  # proxy + rate limiter: any peer
    assert blind_peers(firewall) == TRUSTED
    assert blind_peers(Posture.make("both", *firewall.modules, narrower)) == {"hub"}
    assert blind_peers(Posture.make("mixed", *proxy.modules, *firewall.modules)) == TRUSTED
    assert blind_peers(build_recommended_posture("monitor", "x", sku="sku")) == frozenset()
    assert blind_peers(build_recommended_posture("quarantine", "x")) == frozenset()
    tapped = Posture.make("tapped", *proxy.modules, MboxSpec.make("telemetry_tap"))
    assert blind_peers(tapped) == frozenset()
    assert blind_peers(ALLOW_ALL) == frozenset()


# ----------------------------------------------------------------------
# The rule scheme
# ----------------------------------------------------------------------
def offload_rules(dep, device, live_only=False):
    edge = dep.orchestrator.attachments[device].switch
    return [
        rule
        for rule in edge.flow_table
        if rule.priority == OFFLOAD_PRIORITY
        and rule.match.src == device
        and (not live_only or edge.is_live(rule))
    ]


def monitor(dep, device):
    return build_recommended_posture("monitor", device, sku=dep.devices[device].sku)


@pytest.fixture(params=[False, True], ids=["direct", "consistent"])
def site(request):
    dep = SecuredDeployment.build(consistent_updates=request.param)
    dep.add_device(smart_camera, "cam")
    dep.add_device(smart_plug, "plug")
    dep.add_attacker()
    dep.finalize()
    dep.secure("cam", build_recommended_posture("password_proxy", "cam"))
    dep.secure(
        "plug",
        build_recommended_posture(
            "stateful_firewall", "plug", trusted_sources=(dep.HUB, dep.CONTROLLER)
        ),
    )
    dep.run(until=1.0)  # µmboxes booted, epochs committed
    return dep


def test_one_rule_per_blind_flow_on_the_devices_own_port(site):
    att = site.orchestrator.attachments
    assert [(r.match.dst, r.match.in_port) for r in offload_rules(site, "cam")] == [
        (None, att["cam"].device_port)
    ]
    assert sorted((r.match.dst, r.match.in_port) for r in offload_rules(site, "plug")) == [
        ("controller", att["plug"].device_port),
        ("hub", att["plug"].device_port),
    ]
    assert all(
        r.actions == (Action.normal(),)
        for r in site.edge.flow_table
        if r.priority == OFFLOAD_PRIORITY
    )
    assert site.orchestrator.offload_violations() == []
    posture = [e for e in site.sim.journal.entries(kind="posture") if e.device == "plug"][-1]
    assert posture.fields["offloaded"] == "controller,hub"


def test_blind_report_skips_the_tunnel_and_still_arrives(site):
    tunnelled = site.cluster.tunnelled_in
    at_hub = []
    handle = site.hub.on_packet
    site.hub.on_packet = (  # type: ignore[method-assign]
        lambda packet, in_port: (at_hub.append(packet), handle(packet, in_port))
    )
    original = protocol.telemetry("cam", "hub", "idle", {})
    site.devices["cam"].send(original)
    site.devices["plug"].send(Packet("plug", "internet", dport=443))  # not a trusted peer
    site.run(until=2.0)
    # no µmbox marked it: the host writes a direction before every chain
    assert at_hub == [original] and at_hub[0] is original and original.direction is None
    assert site.internet.rx_count == 1
    assert site.cluster.tunnelled_in == tunnelled + 1  # the plug's, not the camera's


def test_device_to_device_is_inspected_once_by_the_destination(site):
    targets = []
    handle = site.cluster.on_packet
    site.cluster.on_packet = (  # type: ignore[method-assign]
        lambda packet, in_port: (targets.append(packet.payload["target"]), handle(packet, in_port))
    )
    arrived = []
    deliver = site.devices["plug"].on_packet
    site.devices["plug"].on_packet = (  # type: ignore[method-assign]
        lambda packet, in_port: (arrived.append(packet), deliver(packet, in_port))
    )
    # the camera is not a trusted source of the plug's firewall: the
    # plug's chain judges the command, exactly as after a camera visit
    site.devices["cam"].send(protocol.command("cam", "plug", "on"))
    site.run(until=2.0)
    assert targets == ["plug"] and arrived == []
    assert [a.kind for a in site.alerts("plug")] == ["firewall-blocked"]
    site.secure("plug", block_commands("off"))
    site.run(until=3.0)
    site.devices["cam"].send(protocol.command("cam", "plug", "on"))
    site.run(until=4.0)
    # the command met the plug's chain only; the plug's reply, a blind flow
    # of *its* chain, met the camera's only (as device-bound traffic)
    assert targets == ["plug", "plug", "cam"]
    # the plug's µmbox saw it last, as device-bound traffic; the return's
    # inspection mark ended with the edge's lookup
    (packet,) = arrived
    assert (packet.direction, packet.inspected_by) == ("to_device", None)
    assert site.devices["plug"].state == "on"


def test_forged_source_from_another_port_still_tunnels(site):
    """The offload rules key on the device's port: with the edge's source
    binding out of the way, a forged source still takes the inspected path."""
    site.edge.bound.clear()
    tunnelled = site.cluster.tunnelled_in
    site.attackers["attacker"].fire_and_forget(protocol.telemetry("cam", "hub", "idle", {}))
    site.run(until=2.0)
    assert site.cluster.tunnelled_in == tunnelled + 1


def test_forged_source_from_another_port_is_dropped_at_the_edge(site):
    tunnelled, hub_rx = site.cluster.tunnelled_in, site.hub.rx_count
    site.attackers["attacker"].fire_and_forget(protocol.telemetry("cam", "hub", "idle", {}))
    site.run(until=2.0)
    assert site.edge.forged == 1
    assert (site.cluster.tunnelled_in, site.hub.rx_count) == (tunnelled, hub_rx)


def test_unpin_withdraws_at_once(site):
    site.orchestrator.unpin("cam")
    assert offload_rules(site, "cam") == []
    entry = site.sim.journal.entries(kind="offload")[-1]
    assert (entry.device, entry.fields["operation"]) == ("cam", "unpin")
    assert entry.fields["withdrawn"] == "*"
    assert len(offload_rules(site, "plug")) == 2  # the neighbour keeps its own
    site.run(until=2.0)
    assert offload_rules(site, "cam") == [] and site.orchestrator.offload_violations() == []


def test_teardown_withdraws_at_once(site):
    site.orchestrator.apply("plug", ALLOW_ALL)
    assert offload_rules(site, "plug") == []
    site.run(until=2.0)
    assert offload_rules(site, "plug") == [] and site.edge.rules_for("plug") == []
    assert len(offload_rules(site, "cam")) == 1
    assert site.orchestrator.offload_violations() == []


def test_resecure_to_a_chain_that_is_not_blind_withdraws_before_the_swap(site):
    live_at_swap = []
    mbox = site.cluster.mboxes["cam"]
    reconfigure = mbox.reconfigure
    mbox.reconfigure = lambda elements: (  # type: ignore[method-assign]
        live_at_swap.append(offload_rules(site, "cam", live_only=True)),
        reconfigure(elements),
    )
    site.secure("cam", monitor(site, "cam"))
    assert offload_rules(site, "cam", live_only=True) == []  # gone while the old chain still runs
    posture = site.sim.journal.entries(kind="posture")[-1]
    assert posture.fields["withdrawn"] == "*" and "offloaded" not in posture.fields
    site.run(until=2.0)
    assert live_at_swap == [[]]
    assert offload_rules(site, "cam") == [] and site.orchestrator.offload_violations() == []
    # and the monitor chain now sees the camera's reports
    tunnelled = site.cluster.tunnelled_in
    site.devices["cam"].send(protocol.telemetry("cam", "hub", "idle", {}))
    site.run(until=3.0)
    assert site.cluster.tunnelled_in == tunnelled + 1


def test_securing_a_policy_driven_device_never_installs_its_old_chains_blind_flows(site):
    """``secure()`` on a device the policy loop was driving, with no time
    for anything to settle in between: the outgoing chain's blind flows
    must not ride an epoch that outlives the swap."""
    site.orchestrator.unpin("plug")
    site.orchestrator.apply("plug", block_commands("on"))  # policy-driven, blind to any peer
    site.secure("plug", monitor(site, "plug"))  # nothing has run since the unpin
    assert "plug" not in site.orchestrator.offloaded
    for until in (1.002, 1.004, 1.006, 1.01, 2.0):
        site.run(until=until)
        assert offload_rules(site, "plug", live_only=True) == []
    assert offload_rules(site, "plug") == [] and site.orchestrator.offload_violations() == []
    assert [e.fields["operation"] for e in site.sim.journal.entries(kind="offload")] == ["unpin"]


def test_a_withdrawal_supersedes_the_epoch_still_on_the_wire(site):
    """Two administrator actions inside one channel latency, the first
    granting and the second withdrawing: whatever the first put on the
    wire, no 700 rule survives the second's own flow push."""
    site.secure("plug", block_commands("on"))  # grants ``*`` (an epoch, in consistent mode)
    site.secure("plug", monitor(site, "plug"))  # withdraws it before that epoch lands
    site.orchestrator.unpin("cam")
    site.run(until=2.0)
    assert offload_rules(site, "plug") == [] and offload_rules(site, "cam") == []
    assert site.orchestrator.offload_violations() == []
    tunnelled = site.cluster.tunnelled_in
    site.devices["plug"].send(protocol.telemetry("plug", "hub", "on", {}))
    site.devices["cam"].send(protocol.telemetry("cam", "hub", "idle", {}))
    site.run(until=3.0)
    assert site.cluster.tunnelled_in == tunnelled + 2


def test_resecure_between_blind_chains_swaps_the_rules(site):
    n_pushes = len(site.sim.journal.entries(kind="flow-install")) + len(
        site.orchestrator.updater.reports if site.orchestrator.updater else ()
    )
    site.secure("plug", block_commands("on"))  # command filter: blind to any peer
    site.run(until=2.0)
    assert [r.match.dst for r in offload_rules(site, "plug")] == [None]
    posture = [e for e in site.sim.journal.entries(kind="posture") if e.device == "plug"][-1]
    assert (posture.fields["withdrawn"], posture.fields["offloaded"]) == ("controller,hub", "*")
    pushes = len(site.sim.journal.entries(kind="flow-install")) + len(
        site.orchestrator.updater.reports if site.orchestrator.updater else ()
    )
    assert pushes == n_pushes + 1  # one flow push, as for any secure()
    assert site.orchestrator.offload_violations() == []


def test_pinning_a_running_chain_installs_and_policy_driven_devices_never_have_one(site):
    site.secure("cam", block_commands("stop"), pin=False)  # was pinned: stays pinned
    assert len(offload_rules(site, "cam")) == 1
    site.orchestrator.unpin("cam")
    site.orchestrator.apply("cam", block_commands("record", name="other"))
    site.run(until=2.0)
    assert offload_rules(site, "cam") == []  # blind chain, but nobody vouches it stays
    site.orchestrator.pin("cam")
    site.run(until=3.0)
    assert len(offload_rules(site, "cam", live_only=True)) == 1
    entry = site.sim.journal.entries(kind="offload")[-1]
    assert (entry.fields["operation"], entry.fields["offloaded"]) == ("pin", "*")
    site.orchestrator.unpin("cam")
    site.secure("cam", block_commands("record", name="other"))  # same chain: only the pin is new
    site.run(until=4.0)
    assert len(offload_rules(site, "cam", live_only=True)) == 1
    assert site.orchestrator.offload_violations() == []


def test_invariant_checker_names_a_rule_that_should_not_be_there(site):
    att = site.orchestrator.attachments["cam"]
    site.secure("cam", monitor(site, "cam"))
    site.run(until=2.0)
    stale = FlowRule(
        match=FlowMatch(src="cam", in_port=att.device_port),
        actions=(Action.normal(),),
        priority=OFFLOAD_PRIORITY,
    )
    site.edge.install(stale)
    (violation,) = site.orchestrator.offload_violations()
    assert "cam -> *" in violation and "not blind under monitor" in violation
    site.orchestrator.pinned.discard("cam")
    assert "unpinned" in site.orchestrator.offload_violations()[0]


def test_crashed_pinned_proxy_fails_closed_for_what_it_inspects(site):
    """Fail-closed covers what the chain inspects: the inbound login dies at
    the dead µmbox and is journaled; the report the chain never looked at
    keeps flowing."""
    assert site.manager.crash("cam")
    replies = []
    site.attackers["attacker"].request(
        protocol.login("attacker", "cam", "admin", "admin"), replies.append
    )
    received = site.hub.rx_count
    site.devices["cam"].send(protocol.telemetry("cam", "hub", "idle", {}))
    site.run(until=2.0)
    assert replies == [] and site.cluster.down_drops == 1
    verdict = site.sim.journal.entries(kind="verdict")[-1]
    assert (verdict.device, verdict.fields["element"]) == ("cam", "(mbox-down)")
    assert site.hub.rx_count == received + 1


def test_a_refused_deploy_offloads_nothing():
    dep = SecuredDeployment.build()
    dep.add_device(smart_camera, "cam")
    dep.finalize()
    dep.manager.capacity = 0
    with pytest.raises(RuntimeError, match="capacity"):
        dep.secure("cam", build_recommended_posture("password_proxy", "cam"))
    assert dep.orchestrator.offloaded == {} and dep.edge.flow_table == []
    assert dep.orchestrator.pinned == set()  # the policy loop still owns it


def test_a_refused_resecure_keeps_the_pin_and_withdraws_for_good(site):
    site.secure("plug", block_commands("on"))  # in consistent mode: an epoch on the wire
    site.manager.deploy = lambda device, posture: (_ for _ in ()).throw(  # type: ignore[method-assign]
        RuntimeError("capacity")
    )
    with pytest.raises(RuntimeError, match="capacity"):
        site.secure("plug", monitor(site, "plug"))
    # the filter still runs, pinned, on four hops: safe, and the withdrawal
    # reached the switch although the round that made it failed
    assert "plug" in site.orchestrator.pinned and "plug" not in site.orchestrator.offloaded
    site.orchestrator.unpin("plug")
    site.run(until=2.0)
    assert offload_rules(site, "plug") == [] and site.orchestrator.offload_violations() == []


def test_offload_works_from_a_room_switch():
    dep = SecuredDeployment.build()
    dep.add_room("floor1")
    dep.add_device(smart_camera, "cam", room="floor1")
    dep.finalize()
    dep.secure("cam", build_recommended_posture("password_proxy", "cam"))
    dep.run(until=1.0)
    (rule,) = offload_rules(dep, "cam")
    assert rule in dep.rooms["floor1"].flow_table
    dep.devices["cam"].send(protocol.telemetry("cam", "hub", "idle", {}))
    dep.run(until=2.0)
    assert dep.hub.rx_count == 1 and dep.cluster.tunnelled_in == 0
    assert dep.orchestrator.offload_violations() == []


def test_a_rule_naming_both_ends_is_indexed_under_its_source(sim):
    from repro.netsim.switch import Switch

    switch = Switch("sw", sim)
    rules = [
        FlowRule(
            match=FlowMatch(src=f"dev{i}", dst="hub", in_port=i), actions=(Action.controller(),)
        )
        for i in range(50)
    ]
    switch.install_many(rules)
    assert "hub" not in switch._by_dst and len(switch._by_src) == 50
    assert switch.lookup(Packet("dev7", "hub"), in_port=7) is rules[7]
    assert switch.lookup(Packet("dev7", "hub"), in_port=8) is None


# ----------------------------------------------------------------------
# The differential: same verdicts, fewer hops
# ----------------------------------------------------------------------
def detail(alert):
    """An alert's detail minus ``sig_id``, a process-global counter."""
    return {k: v for k, v in alert.detail.items() if k != "sig_id"}


def observable(dep):
    """Everything a verdict change would move; nothing a hop count does."""
    end_hosts = [*dep.devices.values(), dep.hub, dep.internet, *dep.attackers.values()]
    return {
        "alerts": Counter(
            (a.device, a.kind, json.dumps(detail(a), sort_keys=True, default=str))
            for a in dep.cluster.alerts
        ),
        "verdicts": [
            (e.at, e.device, {k: v for k, v in e.fields.items() if k != "pkt"})
            for e in dep.sim.journal.entries(kind="verdict")
        ],
        "rx": {node.name: node.rx_count for node in end_hosts},
        "compromised": sorted(n for n, d in dep.devices.items() if d.is_compromised()),
        "view": dep.controller.view.snapshot(),
    }


@pytest.fixture
def both_arms(monkeypatch):
    """``run(build)`` -> (as built, with the derivation returning nothing)."""

    def run(scenario):
        offloaded = scenario()
        with monkeypatch.context() as patch:
            patch.setattr("repro.core.orchestrator.blind_peers", lambda posture: frozenset())
            inspected = scenario()
        return offloaded, inspected

    return run


def test_e9_home_differs_only_in_hops(both_arms):
    def scenario():
        dep, __ = build_e9_small()
        dep.run(until=240.0)
        assert dep.orchestrator.offload_violations() == []
        return dep

    offloaded, inspected = both_arms(scenario)
    assert offloaded.orchestrator.offloaded and not inspected.orchestrator.offloaded
    assert observable(offloaded) == observable(inspected)
    assert offloaded.cluster.tunnelled_in < inspected.cluster.tunnelled_in
    assert offloaded.sim.events_processed < inspected.sim.events_processed


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_campaign_scorecard_does_not_move(both_arms, name):
    def scenario():
        dep, runner = arm_campaign(CAMPAIGNS[name])
        dep.run(until=runner.campaign.horizon)
        # measuring checks offload_violations() == []
        return dep, measure_campaign(dep, runner)

    (dep_offloaded, offloaded), (dep_inspected, inspected) = both_arms(scenario)
    deps = dep_offloaded, dep_inspected
    assert offloaded.pop("events") <= inspected.pop("events")
    for score in (offloaded, inspected):
        # the posture entry of the pinned lock names its blind set
        del score["journal_digest"]
    assert offloaded == inspected
    assert observable(deps[0]) == observable(deps[1])
    assert deps[0].orchestrator.offloaded == {"lock": TRUSTED}
    assert deps[0].cluster.tunnelled_in <= deps[1].cluster.tunnelled_in
