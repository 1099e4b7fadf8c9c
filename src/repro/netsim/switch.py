"""An OpenFlow-style switch / access point.

Every IoT device's first-hop edge router "is configured to tunnel packets
to/from the device to the cluster" (paper section 2.2).  The switch holds a
prioritized flow table; unmatched packets are punted to the controller over
the control channel (packet-in), exactly the reactive SDN model the paper
assumes.
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.sdn.flowrule import Action, FlowRule
from repro.sdn.tunnel import TUNNEL_PROTOCOL, tunnel_packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

#: Cache-miss sentinel (``None`` is a valid cached lookup result).
_MISS = object()

#: What a packet no rule matches gets: the table-miss entry, packet-in.
_TABLE_MISS = (Action.controller(),)

#: Megaflow cache floor: the cache may hold this many entries or four per
#: installed rule, whichever is more.  Conforming traffic needs a few keys
#: per rule (a fleet of N devices has O(N) rules and O(N) live 5-tuples),
#: so it never overflows; the bound only keeps pathological traffic (e.g.
#: a port-scanning attacker) from growing the cache past O(rules).
_LOOKUP_CACHE_MIN = 1024


class Switch(Node):
    """A flow-table switch with controller punting and version filtering."""

    def __init__(self, name: str, sim: "Simulator") -> None:
        super().__init__(name, sim)
        self.flow_table: list[FlowRule] = []
        self.active_version: Optional[int] = None
        self.packet_in_handler: Optional[Callable[["Switch", Packet, int], None]] = None
        self.punted = 0
        self.dropped = 0
        self.miss_drops = 0
        # Lookup accelerator: every rule lands in exactly one bucket --
        # keyed by its concrete src, else by its concrete dst, else the
        # wildcard list (src first: a fleet's ``src=D, dst=hub`` rules
        # would otherwise all share the hub's bucket, and every lookup
        # miss for hub-bound traffic would scan the fleet).  A packet can
        # only match rules in the buckets for its own dst/src (plus
        # wildcards), so lookup scans a handful of candidates instead of
        # the whole table.  Entries carry the
        # precomputed sort key; the winner is the minimum over matches,
        # which is exactly what the sorted linear scan returned (sort keys
        # are totally ordered via the unique rule_id).
        self._by_dst: dict[str, list[tuple[tuple[int, int, int], FlowRule]]] = {}
        self._by_src: dict[str, list[tuple[tuple[int, int, int], FlowRule]]] = {}
        self._wild: list[tuple[tuple[int, int, int], FlowRule]] = []
        # Megaflow cache (the OVS trick): the winning rule per concrete
        # 5-tuple + in_port.  Any table or epoch change clears it -- the
        # scan is the slow path, the cache hit is one dict probe.
        self._lookup_cache: dict[tuple, Optional[FlowRule]] = {}
        # Observability: callback gauges over the counters above -- they
        # cost nothing until a snapshot samples them.
        metrics = sim.metrics
        self.metric_labels = {"switch": metrics.unique(name)}
        metrics.gauge("switch_punted", fn=lambda: self.punted, **self.metric_labels)
        metrics.gauge("switch_dropped", fn=lambda: self.dropped, **self.metric_labels)
        metrics.gauge("switch_miss_drops", fn=lambda: self.miss_drops, **self.metric_labels)
        metrics.gauge("switch_table_size", fn=self.table_size, **self.metric_labels)

    # ------------------------------------------------------------------
    # Flow-table management (the controller calls these, via the channel)
    # ------------------------------------------------------------------
    def _index_add(self, rule: FlowRule) -> None:
        entry = (rule.sort_key(), rule)
        if rule.match.src is not None:
            self._by_src.setdefault(rule.match.src, []).append(entry)
        elif rule.match.dst is not None:
            self._by_dst.setdefault(rule.match.dst, []).append(entry)
        else:
            self._wild.append(entry)

    def _reindex(self) -> None:
        self._by_dst = {}
        self._by_src = {}
        self._wild = []
        self._lookup_cache.clear()
        for rule in self.flow_table:
            self._index_add(rule)

    def install(self, rule: FlowRule) -> None:
        """Install a rule, keeping the table sorted for lookup."""
        self.install_many([rule])

    def install_many(self, rules: list[FlowRule]) -> None:
        """Install a batch of rules, each at its sorted position.

        The orchestrator's batched actuation stage and the consistent
        updater's epochs push one rule batch per switch through here.
        Inserting right of equal keys, in batch order, leaves the table
        exactly as appending the batch and stable-sorting would, for a
        binary search per rule instead of a pass over the whole table.
        """
        if not rules:
            return
        for rule in rules:
            insort(self.flow_table, rule, key=FlowRule.sort_key)
            self._index_add(rule)
        self._lookup_cache.clear()

    def remove_where(self, predicate: Callable[[FlowRule], bool]) -> int:
        """Remove rules satisfying ``predicate``; returns how many."""
        before = len(self.flow_table)
        self.flow_table = [r for r in self.flow_table if not predicate(r)]
        removed = before - len(self.flow_table)
        if removed:
            self._reindex()
        return removed

    def remove_version(self, version: int) -> int:
        """Remove all rules of a configuration epoch."""
        return self.remove_where(lambda r: r.version == version)

    def set_active_version(self, version: Optional[int]) -> None:
        """Flip the active configuration epoch (two-phase update commit)."""
        self.active_version = version
        self._lookup_cache.clear()

    def lookup(self, packet: Packet, in_port: int) -> Optional[FlowRule]:
        """Highest-priority live rule matching the packet, or None.

        A rule is live when it is version-independent or tagged with the
        active version.
        """
        active = self.active_version
        src = packet.src
        dst = packet.dst
        protocol = packet.protocol
        sport = packet.sport
        dport = packet.dport
        cache_key = (src, dst, protocol, sport, dport, in_port)
        cached = self._lookup_cache.get(cache_key, _MISS)
        if cached is not _MISS:
            return cached
        best: Optional[FlowRule] = None
        best_key: Optional[tuple[int, int, int]] = None
        for bucket in (
            self._by_dst.get(dst),
            self._by_src.get(src),
            self._wild,
        ):
            if not bucket:
                continue
            for key, rule in bucket:
                if best_key is not None and key >= best_key:
                    continue
                if rule.version is not None and rule.version != active:
                    continue
                # FlowMatch.matches, inlined over locals: this is the
                # innermost loop of the data path.
                m = rule.match
                if (
                    (m.src is None or m.src == src)
                    and (m.dst is None or m.dst == dst)
                    and (m.protocol is None or m.protocol == protocol)
                    and (m.sport is None or m.sport == sport)
                    and (m.dport is None or m.dport == dport)
                    and (m.in_port is None or m.in_port == in_port)
                ):
                    best, best_key = rule, key
        cache = self._lookup_cache
        if len(cache) >= max(_LOOKUP_CACHE_MIN, 4 * len(self.flow_table)):
            cache.clear()
        cache[cache_key] = best
        return best

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, in_port: int) -> None:
        name = self.name
        while (
            packet.protocol == TUNNEL_PROTOCOL
            and packet.dst == name
            and packet.payload.get("inspected")
        ):
            # A µmbox returned an inspected packet: decapsulate and run the
            # inner packet through the table.  The in_port is the
            # cluster-facing port, which the orchestrator's bypass rules
            # key on -- that is what prevents re-tunnelling loops.
            packet = packet.payload["inner"]
            packet.meta["inspected"] = True
        # The megaflow probe and the hit counters of ``lookup`` /
        # ``FlowRule.record_hit``, done here: a cached flow costs this
        # method one dict probe, not two more calls.
        rule = self._lookup_cache.get(
            (packet.src, packet.dst, packet.protocol, packet.sport, packet.dport, in_port),
            _MISS,
        )
        if rule is _MISS:
            rule = self.lookup(packet, in_port)
        if rule is None:
            self._apply(_TABLE_MISS, packet, in_port)
            return
        rule.hits += 1
        rule.hit_bytes += packet.size
        self._apply(rule.actions, packet, in_port)

    def _apply(self, actions: tuple[Action, ...], packet: Packet, in_port: int) -> None:
        # Ordered by data-path frequency: conforming edge traffic tunnels
        # on the way in and punts on the way back (the orchestrator's
        # bypass rules are ``controller`` actions); forward/drop are colder.
        for action in actions:
            kind = action.kind
            if kind == "tunnel":
                outer = tunnel_packet(packet, self.name, action.target)
                if action.via is not None:
                    # Address the outer packet to the cluster host so that
                    # intermediate switches can route it there.
                    outer.dst = action.via
                self.send(outer, action.port)
            elif kind == "controller":
                handler = self.packet_in_handler
                if handler is not None:
                    self.punted += 1
                    handler(self, packet, in_port)
                else:
                    self.miss_drops += 1
            elif kind == "forward":
                self.send(packet, action.port)
            elif kind == "drop":
                self.dropped += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def table_size(self) -> int:
        return len(self.flow_table)

    def rules_for(self, device: str) -> list[FlowRule]:
        """Rules whose match names ``device`` as src or dst."""
        return [
            r for r in self.flow_table if device in (r.match.src, r.match.dst)
        ]
