"""Tests for the OpenFlow-style switch."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch
from repro.sdn.flowrule import Action, FlowMatch, FlowRule
from repro.sdn.tunnel import tunnel_packet


def build(sim):
    """switch with hosts a (port of a), b, c attached."""
    sw = Switch("sw", sim)
    hosts = {}
    for name in ("a", "b", "c"):
        host = Host(name, sim)
        Link(sim, sw, host, latency=0.001)
        hosts[name] = host
    return sw, hosts


def port_of(sw, name):
    return sw.port_to(name)


def test_miss_without_handler_drops(sim):
    sw, hosts = build(sim)
    hosts["a"].send(Packet(src="a", dst="b"))
    sim.run()
    assert hosts["b"].inbox == []
    assert sw.miss_drops == 1


def test_forward_rule(sim):
    sw, hosts = build(sim)
    sw.install(
        FlowRule(match=FlowMatch(dst="b"), actions=(Action.forward(port_of(sw, "b")),))
    )
    hosts["a"].send(Packet(src="a", dst="b"))
    sim.run()
    assert len(hosts["b"].inbox) == 1


def test_drop_rule_beats_lower_priority_forward(sim):
    sw, hosts = build(sim)
    sw.install(
        FlowRule(match=FlowMatch(dst="b"), actions=(Action.forward(port_of(sw, "b")),), priority=100)
    )
    sw.install(
        FlowRule(match=FlowMatch(src="a", dst="b"), actions=(Action.drop(),), priority=500)
    )
    hosts["a"].send(Packet(src="a", dst="b"))
    hosts["c"].send(Packet(src="c", dst="b"))
    sim.run()
    assert len(hosts["b"].inbox) == 1
    assert hosts["b"].inbox[0].src == "c"
    assert sw.dropped == 1


def test_packet_in_handler_called_on_miss(sim):
    sw, hosts = build(sim)
    punted = []
    sw.packet_in_handler = lambda s, p, ip: punted.append((p.dst, ip))
    hosts["a"].send(Packet(src="a", dst="b"))
    sim.run()
    assert punted == [("b", port_of(sw, "a"))]
    assert sw.punted == 1


def test_in_port_match(sim):
    sw, hosts = build(sim)
    sw.install(
        FlowRule(
            match=FlowMatch(dst="b", in_port=port_of(sw, "a")),
            actions=(Action.forward(port_of(sw, "b")),),
            priority=500,
        )
    )
    sw.install(FlowRule(match=FlowMatch(dst="b"), actions=(Action.drop(),), priority=100))
    hosts["a"].send(Packet(src="a", dst="b"))
    hosts["c"].send(Packet(src="c", dst="b"))
    sim.run()
    assert [p.src for p in hosts["b"].inbox] == ["a"]


def test_version_filtering(sim):
    sw, hosts = build(sim)
    old = FlowRule(
        match=FlowMatch(dst="b"), actions=(Action.drop(),), priority=100, version=1
    )
    new = FlowRule(
        match=FlowMatch(dst="b"),
        actions=(Action.forward(port_of(sw, "b")),),
        priority=100,
        version=2,
    )
    sw.install(old)
    sw.install(new)
    sw.set_active_version(1)
    hosts["a"].send(Packet(src="a", dst="b"))
    sim.run()
    assert hosts["b"].inbox == []
    sw.set_active_version(2)
    hosts["a"].send(Packet(src="a", dst="b"))
    sim.run()
    assert len(hosts["b"].inbox) == 1


def test_remove_version(sim):
    sw, __ = build(sim)
    sw.install(FlowRule(match=FlowMatch(), actions=(Action.drop(),), version=1))
    sw.install(FlowRule(match=FlowMatch(), actions=(Action.drop(),), version=2))
    assert sw.remove_version(1) == 1
    assert sw.table_size() == 1


def test_tunnel_action_encapsulates(sim):
    sw, hosts = build(sim)
    sw.install(
        FlowRule(
            match=FlowMatch(dst="b"),
            actions=(Action.tunnel("b", port_of(sw, "c")),),
        )
    )
    hosts["a"].send(Packet(src="a", dst="b", payload={"cmd": "on"}))
    sim.run()
    assert len(hosts["c"].inbox) == 1
    outer = hosts["c"].inbox[0]
    assert outer.protocol == "iotsec-tunnel"
    assert outer.payload["inner"].payload == {"cmd": "on"}
    assert outer.payload["target"] == "b"


def test_inspected_tunnel_return_decapsulated_and_reprocessed(sim):
    sw, hosts = build(sim)
    # bypass rule: inspected traffic from c's port toward b is forwarded
    sw.install(
        FlowRule(
            match=FlowMatch(dst="b", in_port=port_of(sw, "c")),
            actions=(Action.forward(port_of(sw, "b")),),
            priority=900,
        )
    )
    inner = Packet(src="a", dst="b", payload={"cmd": "on"})
    outer = tunnel_packet(inner, ingress="sw", target="b")
    outer.dst = "sw"
    outer.payload["inspected"] = True
    hosts["c"].send(outer)
    sim.run()
    assert hosts["b"].inbox == [inner]
    assert inner.payload == {"cmd": "on"}
    assert inner.inspected_by is None  # the mark ends with the switch's lookup


def _inspecting_site(sim):
    """a -> sw (tunnel) -> c, which returns the envelope marked inspected
    -> sw (bypass: a ``controller`` action, as the orchestrator compiles it)
    -> packet-in handler forwards to b."""
    sw, hosts = build(sim)
    tunnel = FlowRule(
        match=FlowMatch(dst="b"), actions=(Action.tunnel("b", port_of(sw, "c")),)
    )
    bypass = FlowRule(
        match=FlowMatch(dst="b", in_port=port_of(sw, "c")),
        actions=(Action.controller(),),
        priority=900,
    )
    sw.install_many([tunnel, bypass])
    marks = []

    def forward(switch, packet, in_port):
        marks.append(packet.inspected_by)
        switch.send(packet, port_of(switch, packet.dst))

    sw.packet_in_handler = forward

    def inspect_and_return(outer):
        back = tunnel_packet(outer.payload["inner"], ingress="c", target="b")
        back.dst = "sw"
        back.payload["inspected"] = True
        return back

    hosts["c"].responder = inspect_and_return
    return sw, hosts, tunnel, bypass, marks


def test_inspected_return_counts_one_arrival_and_hits_on_the_inner_packet(sim):
    """The unwrapped inner packet is looked up in the same ``on_packet``:
    the switch counts the envelope's arrival once, the bypass rule counts
    the *inner* packet's bytes, and the inner is sent once more."""
    sw, hosts, tunnel, bypass, marks = _inspecting_site(sim)
    inner = Packet(src="a", dst="b", payload={"cmd": "on"}, size=96)
    hosts["a"].send(inner)
    sim.run()
    (arrived,) = hosts["b"].inbox
    assert arrived is inner
    # sent by a, then once by the switch (its second send, below), and
    # still dated by a's send
    assert (hosts["a"].tx_count, hosts["b"].rx_count) == (1, 1)
    assert arrived.created_at == 0.0
    # the forwarder saw the envelope's target as the inspector; the mark
    # is gone once the switch is done with the packet
    assert marks == ["b"] and arrived.inspected_by is None
    # two arrivals at the switch: the inner from a, the envelope from c
    assert sw.rx_count == 2
    assert sw.rx_bytes == 96 + (96 + 20)
    assert sw.tx_count == 2
    assert sw.punted == 1 and sw.miss_drops == 0 and sw.dropped == 0
    assert (tunnel.hits, tunnel.hit_bytes) == (1, 96)
    assert (bypass.hits, bypass.hit_bytes) == (1, 96)


def test_table_miss_and_controller_action_share_the_punt_counters(sim):
    sw, hosts = build(sim)
    sw.install(FlowRule(match=FlowMatch(dst="b"), actions=(Action.controller(),)))
    for dst in ("b", "c"):  # a rule hit with a controller action, then a miss
        hosts["a"].send(Packet(src="a", dst=dst))
    sim.run()
    assert (sw.punted, sw.miss_drops) == (0, 2)
    seen = []
    sw.packet_in_handler = lambda switch, packet, in_port: seen.append(packet.dst)
    for dst in ("b", "c"):
        hosts["a"].send(Packet(src="a", dst=dst))
    sim.run()
    assert (sw.punted, sw.miss_drops) == (2, 2) and seen == ["b", "c"]


def test_rules_for_device(sim):
    sw, __ = build(sim)
    sw.install(FlowRule(match=FlowMatch(dst="cam"), actions=(Action.drop(),)))
    sw.install(FlowRule(match=FlowMatch(src="cam"), actions=(Action.drop(),)))
    sw.install(FlowRule(match=FlowMatch(dst="other"), actions=(Action.drop(),)))
    assert len(sw.rules_for("cam")) == 2


# ----------------------------------------------------------------------
# Table order: sorted insertion == append + stable re-sort
# ----------------------------------------------------------------------
_RULE_SPECS = st.tuples(
    st.sampled_from([100, 900]),            # priority
    st.sampled_from([None, "cam"]),         # dst: two specificities
    st.integers(min_value=1, max_value=4),  # rule_id: collisions => equal sort keys
)
_TABLE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.lists(_RULE_SPECS, max_size=6)),
        st.tuples(st.just("remove"), st.sampled_from([100, 900])),
    ),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(_TABLE_OPS)
def test_install_many_order_matches_extend_and_stable_sort(ops):
    """The reference is the old implementation: extend the table with the
    batch and stable-sort the whole of it.  Ties (equal sort keys) must
    land in the same places, across interleaved ``remove_where`` calls."""
    sw = Switch("sw", Simulator())
    reference: list[FlowRule] = []
    for op, arg in ops:
        if op == "install":
            batch = [
                FlowRule(
                    match=FlowMatch(dst=dst),
                    actions=(Action.drop(),),
                    priority=priority,
                    rule_id=rule_id,
                )
                for priority, dst, rule_id in arg
            ]
            sw.install_many(batch)
            reference.extend(batch)
            reference.sort(key=FlowRule.sort_key)
        else:
            sw.remove_where(lambda r: r.priority == arg)
            reference = [r for r in reference if r.priority != arg]
        assert [id(r) for r in sw.flow_table] == [id(r) for r in reference]


# ----------------------------------------------------------------------
# Megaflow cache vs an uncached scan, under scoped table changes
# ----------------------------------------------------------------------
_NAMES = ("a", "b", "c")
_OWNERS = st.sampled_from([None, "a", "b"])
_SCOPES = st.one_of(st.none(), st.sets(_OWNERS, min_size=1))
_VERSIONED_RULES = st.tuples(
    st.sampled_from([100, 500, 900]),         # priority
    st.sampled_from([None, *_NAMES]),         # src \ both None: a rule that can
    st.sampled_from([None, *_NAMES]),         # dst /  answer for any packet
    st.sampled_from([None, 0]),               # in_port
    st.sampled_from([None, 1, 2, 3]),         # version
    _OWNERS,
    st.booleans(),                            # twin: reuse the id of an equal rule
)
_PROBES = st.lists(
    st.tuples(st.sampled_from(_NAMES), st.sampled_from(_NAMES), st.sampled_from([0, 1])),
    max_size=8,
)
_CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("install"), st.lists(_VERSIONED_RULES, max_size=5), st.none()),
        st.tuples(st.just("remove"), st.sampled_from([100, 500, 900]), _SCOPES),
        st.tuples(st.just("flip"), st.integers(min_value=1, max_value=3), _SCOPES),
        st.tuples(st.just("probe"), _PROBES, st.none()),
    ),
    max_size=14,
)


@settings(max_examples=300, deadline=None)
@given(_CACHE_OPS)
def test_every_cached_answer_equals_an_uncached_scan(ops):
    """After any interleaving of ``install_many`` / ``remove_where`` /
    scoped and whole-table flips -- wildcard rules and cached *misses*
    included -- whatever the megaflow cache still holds is what a scan of
    the table returns.  The reference keeps its own table (extend + stable
    sort, filter) and its own per-owner versions, and matches with
    ``FlowMatch.matches``: it shares no index and no predicate with the
    switch.  Sort keys collide only between twins, rules of one priority
    and match (which of two *different* rules with one key wins is not
    defined: rule ids are unique outside tests)."""
    sw = Switch("sw", Simulator())
    table: list[FlowRule] = []
    running: dict = {}
    first_id: dict = {}

    def live(rule):
        return rule.version is None or rule.version == running.get(rule.owner)

    def scan(src, dst, in_port):
        packet = Packet(src=src, dst=dst)
        for rule in table:
            if live(rule) and rule.match.matches(packet, in_port):
                return rule
        return None

    for op, arg, scope in ops:
        if op == "install":
            batch = []
            for priority, src, dst, in_port, version, owner, twin in arg:
                match = FlowMatch(src=src, dst=dst, in_port=in_port)
                same = {}
                if twin and (priority, match) in first_id:
                    same["rule_id"] = first_id[priority, match]
                rule = FlowRule(match, (Action.drop(),), priority, version, owner=owner, **same)
                first_id.setdefault((priority, match), rule.rule_id)
                batch.append(rule)
            sw.install_many(batch)
            table.extend(batch)
            table.sort(key=FlowRule.sort_key)
        elif op == "remove":
            doomed = lambda r: r.priority == arg  # noqa: E731
            if scope is None:
                removed = sw.remove_where(doomed)
                kept = [r for r in table if not doomed(r)]
            else:
                removed = sw.remove_where(doomed, scope)
                kept = [r for r in table if not (doomed(r) and r.owner in scope)]
            assert removed == len(table) - len(kept)
            table = kept
        elif op == "flip":
            if scope is None:
                sw.set_active_version(arg)
                scope = {r.owner for r in table} | set(running)
            else:
                sw.set_active_version(arg, scope)
            for owner in scope:
                running[owner] = max(arg, running.get(owner, arg))
        else:
            for src, dst, in_port in arg:
                sw.lookup(Packet(src=src, dst=dst), in_port)
        assert [id(r) for r in sw.flow_table] == [id(r) for r in table]
        assert all(sw.is_live(r) == live(r) for r in table)
        for (src, dst, __, __, __, in_port), cached in sw._lookup_cache.items():
            assert cached is scan(src, dst, in_port)
    # and a cold lookup agrees with the scan too, hit or miss
    for src in _NAMES:
        for dst in _NAMES:
            for in_port in (0, 1):
                assert sw.lookup(Packet(src=src, dst=dst), in_port) is scan(src, dst, in_port)


def test_scoped_removal_leaves_an_equal_keyed_rule_of_another_owner():
    sw = Switch("sw", Simulator())
    twins = [
        FlowRule(FlowMatch(dst="a"), (Action.drop(),), 100, rule_id=7, owner=owner)
        for owner in ("x", "y", "z")
    ]
    sw.install_many(twins)
    assert sw.remove_where(lambda r: True, owners=("y",)) == 1
    assert [id(r) for r in sw.flow_table] == [id(twins[0]), id(twins[2])]
    assert sw.lookup(Packet(src="b", dst="a"), 0) is twins[0]


# ----------------------------------------------------------------------
# Megaflow cache: sized from the table, bounded under spoofed traffic
# ----------------------------------------------------------------------
class CountingDict(dict):
    """A bucket index that counts the probes only a cache miss makes."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def fleet_switch(devices):
    sw = Switch("sw", Simulator())
    rules = []
    for i in range(devices):
        rules.append(FlowRule(match=FlowMatch(src=f"dev{i}"), actions=(Action.drop(),)))
        rules.append(FlowRule(match=FlowMatch(dst=f"dev{i}"), actions=(Action.drop(),)))
    sw.install_many(rules)
    sw._by_dst = CountingDict(sw._by_dst)
    return sw


def test_megaflow_cache_holds_a_fleet_larger_than_its_floor():
    sw = fleet_switch(1100)
    flows = [Packet(src=f"dev{i}", dst="hub", dport=8883) for i in range(1100)]
    flows += [Packet(src="hub", dst=f"dev{i}", dport=80) for i in range(1100)]
    winners = [sw.lookup(packet, 0) for packet in flows]
    assert None not in winners
    assert sw._by_dst.gets == len(flows)  # the warm pass scanned once per flow
    assert [sw.lookup(packet, 0) for packet in flows] == winners
    assert sw._by_dst.gets == len(flows)  # the second pass scanned no bucket


def test_megaflow_cache_stays_bounded_under_spoofed_tuples():
    for devices in (5, 600):
        sw = fleet_switch(devices)
        bound = max(1024, 4 * sw.table_size())
        largest = 0
        for i in range(100_000):
            sw.lookup(Packet(src=f"spoof{i}", dst="dev0", sport=i % 60_000, dport=23), 0)
            largest = max(largest, len(sw._lookup_cache))
        assert 1024 <= largest <= bound
        assert sw._by_dst.gets == 100_000  # distinct tuples: every one a miss
