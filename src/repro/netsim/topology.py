"""Topology construction helpers.

The deployments the paper targets (section 2.2) are residential and
commercial: devices hang off one or a few edge switches/APs, which uplink to
an on-premise security cluster (enterprise) or an upgraded IoT router
(home), and out to the Internet.  :meth:`Topology.smart_home` builds exactly
that shape.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterable

from repro.netsim.link import Link
from repro.netsim.node import Host, Node
from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch


class Topology:
    """A named collection of nodes and links over one simulator."""

    def __init__(self, sim: Simulator | None = None) -> None:
        self.sim = sim or Simulator()
        self.nodes: dict[str, Node] = {}
        self.links: list[Link] = []
        #: node -> [(latency, neighbour, egress port)] over *up* links;
        #: None once a change has made the routes stale.
        self._adjacency: dict[str, list[tuple[float, str, int]]] | None = None
        #: source -> {destination: egress port at source}
        self._next_hops: dict[str, dict[str, int]] = {}
        #: The switches whose ``next_hops`` caches read these routes.
        self._switches: list[Switch] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, node: Node) -> Node:
        """Register a node (its name must be unique in the topology)."""
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        if isinstance(node, Switch):
            node.routes = self
            self._switches.append(node)
        self._drop_routes()
        return node

    def add_switch(self, name: str) -> Switch:
        switch = Switch(name, self.sim)
        self.add(switch)
        return switch

    def add_host(self, name: str) -> Host:
        host = Host(name, self.sim)
        self.add(host)
        return host

    def connect(
        self,
        a: str | Node,
        b: str | Node,
        latency: float = 0.001,
        bandwidth: float | None = None,
    ) -> Link:
        """Link two nodes (by name or reference)."""
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        link = Link(self.sim, node_a, node_b, latency=latency, bandwidth=bandwidth)
        self.links.append(link)
        link.on_state_change = self._drop_routes
        self._drop_routes()
        return link

    def _resolve(self, ref: str | Node) -> Node:
        if isinstance(ref, Node):
            return ref
        node = self.nodes.get(ref)
        if node is None:
            raise KeyError(f"no node named {ref!r}")
        return node

    def __getitem__(self, name: str) -> Node:
        return self._resolve(name)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    # ------------------------------------------------------------------
    # Canned shapes
    # ------------------------------------------------------------------
    @classmethod
    def smart_home(
        cls,
        device_names: Iterable[str] = (),
        sim: Simulator | None = None,
        edge_name: str = "edge",
        cluster_name: str = "cluster",
        internet_name: str = "internet",
        device_latency: float = 0.002,
        uplink_latency: float = 0.010,
        cluster_latency: float = 0.001,
    ) -> "Topology":
        """Edge switch + device ports + cluster host + internet host.

        The devices themselves are plain :class:`Host` placeholders; the
        devices package replaces them with real device models via
        :meth:`replace_node`.
        """
        topo = cls(sim)
        edge = topo.add_switch(edge_name)
        cluster = topo.add_host(cluster_name)
        internet = topo.add_host(internet_name)
        topo.connect(edge, cluster, latency=cluster_latency)
        topo.connect(edge, internet, latency=uplink_latency)
        for name in device_names:
            device = topo.add_host(name)
            topo.connect(edge, device, latency=device_latency)
        return topo

    def replace_node(self, name: str, replacement: Node) -> Node:
        """Swap a placeholder for a richer node, preserving its links."""
        old = self._resolve(name)
        if replacement.name != name:
            raise ValueError(
                f"replacement must keep the name {name!r} "
                f"(got {replacement.name!r})"
            )
        for port, link in old.ports.items():
            replacement.attach(port, link)
            if link.a is old:
                link.a = replacement
            else:
                link.b = replacement
        self.nodes[name] = replacement
        return replacement

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _drop_routes(self) -> None:
        """Forget every computed route, the switches' caches of them too:
        a node or link was added, or a link went up or down."""
        self._adjacency = None
        self._next_hops.clear()
        for switch in self._switches:
            switch.next_hops.clear()

    def _build_adjacency(self) -> dict[str, list[tuple[float, str, int]]]:
        """Neighbours of every node over the links that are up, in link
        insertion order, each with the port that reaches it."""
        adjacency: dict[str, list[tuple[float, str, int]]] = {
            name: [] for name in self.nodes
        }
        for link in self.links:
            if link.up:
                a, b = link.a.name, link.b.name
                adjacency.setdefault(a, []).append((link.latency, b, link.port_a))
                adjacency.setdefault(b, []).append((link.latency, a, link.port_b))
        return adjacency

    def _first_hops(self, source: str) -> dict[str, int]:
        """Dijkstra from ``source``: every reachable destination mapped to
        the port at ``source`` that starts a least-latency path to it.

        Among equal-cost paths the first discovered wins (a neighbour is
        re-labelled only by a strictly cheaper path, and the heap breaks
        cost ties by discovery order), so the choice is deterministic.
        """
        adjacency = self._adjacency
        hops: dict[str, int] = {}
        if source not in adjacency:
            return hops
        cost = {source: 0.0}
        heap: list[tuple[float, int, str, int | None]] = [(0.0, 0, source, None)]
        discovered = 1
        while heap:
            so_far, _, node, port = heappop(heap)
            if so_far > cost[node]:
                continue  # superseded by a cheaper label pushed later
            if port is not None:
                hops[node] = port
            for latency, neighbour, egress in adjacency[node]:
                through = so_far + latency
                if neighbour not in cost or through < cost[neighbour]:
                    cost[neighbour] = through
                    first = egress if port is None else port
                    heappush(heap, (through, discovered, neighbour, first))
                    discovered += 1
        return hops

    def next_hop_port(self, at: str, toward: str) -> int | None:
        """The output port at node ``at`` on a shortest path to ``toward``.

        The answer is read from a per-source table that one Dijkstra from
        ``at`` fills for every destination at once.  The tables (and the
        adjacency they are computed over) are dropped, with every switch's
        ``next_hops`` cache, whenever nodes or links are added or a link
        changes state (``_drop_routes``).
        """
        if at == toward:
            return None
        if self._adjacency is None:
            self._adjacency = self._build_adjacency()
        table = self._next_hops.get(at)
        if table is None:
            table = self._next_hops[at] = self._first_hops(at)
        return table.get(toward)

    def switches(self) -> list[Switch]:
        return [n for n in self.nodes.values() if isinstance(n, Switch)]

    def run(self, until: float | None = None) -> None:
        """Convenience passthrough to the simulator."""
        self.sim.run(until=until)
