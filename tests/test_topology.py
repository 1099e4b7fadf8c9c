"""Tests for topology construction and routing."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.node import Host
from repro.netsim.packet import Packet
from repro.netsim.switch import Switch
from repro.netsim.topology import Topology
from repro.sdn.flowrule import Action, FlowMatch, FlowRule


def test_smart_home_shape():
    topo = Topology.smart_home(["cam", "plug"])
    assert set(topo.nodes) == {"edge", "cluster", "internet", "cam", "plug"}
    assert isinstance(topo["edge"], Switch)
    assert len(topo.links) == 4


def test_duplicate_node_rejected():
    topo = Topology()
    topo.add_host("a")
    with pytest.raises(ValueError):
        topo.add_host("a")


def test_connect_by_name_and_reference():
    topo = Topology()
    a = topo.add_host("a")
    topo.add_host("b")
    link = topo.connect(a, "b", latency=0.5)
    assert link.latency == 0.5
    assert topo["a"].port_to("b") is not None


def test_unknown_node_lookup_raises():
    topo = Topology()
    with pytest.raises(KeyError):
        topo["ghost"]
    with pytest.raises(KeyError):
        topo.connect("ghost", "ghost2")


def test_contains():
    topo = Topology()
    topo.add_host("a")
    assert "a" in topo and "b" not in topo


def test_next_hop_port_shortest_path():
    topo = Topology.smart_home(["cam"])
    # edge -> cam directly
    port = topo.next_hop_port("edge", "cam")
    assert port == topo["edge"].port_to("cam")
    # cam -> internet goes through edge
    assert topo.next_hop_port("cam", "internet") == topo["cam"].port_to("edge")


def test_next_hop_port_no_path():
    topo = Topology()
    topo.add_host("a")
    topo.add_host("b")
    assert topo.next_hop_port("a", "b") is None
    assert topo.next_hop_port("a", "a") is None


def test_next_hop_avoids_failed_links():
    topo = Topology()
    for name in ("a", "m1", "m2", "b"):
        topo.add_host(name)
    l1 = topo.connect("a", "m1", latency=0.001)
    topo.connect("m1", "b", latency=0.001)
    topo.connect("a", "m2", latency=0.01)
    topo.connect("m2", "b", latency=0.01)
    assert topo.next_hop_port("a", "b") == topo["a"].port_to("m1")
    l1.fail()
    assert topo.next_hop_port("a", "b") == topo["a"].port_to("m2")


def test_next_hop_restores_with_the_link():
    topo = Topology()
    for name in ("a", "m1", "m2", "b"):
        topo.add_host(name)
    l1 = topo.connect("a", "m1", latency=0.001)
    topo.connect("m1", "b", latency=0.001)
    topo.connect("a", "m2", latency=0.01)
    l4 = topo.connect("m2", "b", latency=0.01)
    l1.fail()
    l4.fail()
    assert topo.next_hop_port("a", "b") is None
    assert topo.next_hop_port("a", "m2") == topo["a"].port_to("m2")
    l1.restore()
    assert topo.next_hop_port("a", "b") == topo["a"].port_to("m1")


def test_next_hop_equal_cost_takes_first_link_added():
    for __ in range(2):  # the same choice every time, not hash-order luck
        topo = Topology()
        for name in ("a", "m2", "m1", "b"):
            topo.add_host(name)
        topo.connect("a", "m1", latency=0.005)
        topo.connect("a", "m2", latency=0.005)
        topo.connect("m2", "b", latency=0.005)
        topo.connect("m1", "b", latency=0.005)
        assert topo.next_hop_port("a", "b") == topo["a"].port_to("m1")
        assert topo.next_hop_port("b", "a") == topo["b"].port_to("m2")


# ----------------------------------------------------------------------
# Routing against networkx as the reference, with links flapping
# ----------------------------------------------------------------------
def reference_graph(topo):
    """What ``Topology`` routes over, as networkx sees it: every node, and
    per node pair the cheapest link that is up."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    for link in topo.links:
        if link.up:
            a, b = link.a.name, link.b.name
            if not graph.has_edge(a, b) or link.latency < graph[a][b]["weight"]:
                graph.add_edge(a, b, weight=link.latency)
    return graph


def walk_cost(topo, at, toward):
    """Follow ``next_hop_port`` hop by hop; the summed latency, or None."""
    cost = 0
    for __ in range(len(topo.nodes)):
        if at == toward:
            return cost
        port = topo.next_hop_port(at, toward)
        if port is None:
            return None
        link = topo[at].ports[port]
        assert link.up
        cost += link.latency
        at = link.other_end(topo[at]).name
    raise AssertionError("routing loop")


def assert_routes_match_reference(topo):
    graph = reference_graph(topo)
    for at in topo.nodes:
        assert topo.next_hop_port(at, at) is None
        for toward in topo.nodes:
            if at == toward:
                continue
            port = topo.next_hop_port(at, toward)
            try:
                expected = nx.shortest_path_length(graph, at, toward, weight="weight")
            except nx.NetworkXNoPath:
                assert port is None, (at, toward)
                continue
            assert walk_cost(topo, at, toward) == expected, (at, toward)
            paths = list(nx.all_shortest_paths(graph, at, toward, weight="weight"))
            if len(paths) == 1:
                neighbour = topo[at].ports[port].other_end(topo[at]).name
                assert neighbour == paths[0][1], (at, toward)
    for toward in topo.nodes:
        with pytest.raises(nx.NodeNotFound):
            nx.shortest_path(graph, "ghost", toward, weight="weight")
        assert topo.next_hop_port("ghost", toward) is None
        assert topo.next_hop_port(toward, "ghost") is None


@st.composite
def weighted_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    names = [f"n{i}" for i in range(n)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    # Integer latencies keep path sums exact; parallel links are allowed.
    links = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.integers(min_value=1, max_value=4)),
            max_size=10,
        )
    )
    topo = Topology()
    for name in names:
        topo.add_host(name)
    for (a, b), latency in links:
        topo.connect(a, b, latency=latency)
    return topo


@settings(max_examples=60, deadline=None)
@given(weighted_topologies(), st.data())
def test_next_hop_matches_networkx_under_link_flaps(topo, data):
    assert_routes_match_reference(topo)
    if not topo.links:
        return
    flaps = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(topo.links) - 1), st.booleans()
            ),
            max_size=6,
        )
    )
    for index, up in flaps:
        link = topo.links[index]
        link.restore() if up else link.fail()
        assert_routes_match_reference(topo)


def test_replace_node_preserves_links(sim):
    topo = Topology.smart_home(["cam"], sim=sim)
    replacement = Host("cam", sim)
    topo.replace_node("cam", replacement)
    assert topo["cam"] is replacement
    # traffic still flows over the preserved link
    topo["edge"].install(FlowRule(FlowMatch(), (Action.normal(),), priority=0))
    topo["internet"].send(Packet(src="internet", dst="cam"))
    topo.run()
    assert len(replacement.inbox) == 1


def test_replace_node_name_must_match(sim):
    topo = Topology.smart_home(["cam"], sim=sim)
    with pytest.raises(ValueError):
        topo.replace_node("cam", Host("other", sim))


def test_switches_listing():
    topo = Topology.smart_home([])
    assert [s.name for s in topo.switches()] == ["edge"]
