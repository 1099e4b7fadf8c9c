"""An OpenFlow-style switch / access point.

Every IoT device's first-hop edge router "is configured to tunnel packets
to/from the device to the cluster" (paper section 2.2).  The switch holds a
prioritized flow table and forwards on it: a ``normal`` action (OpenFlow's
NORMAL) is resolved here, from the tunnels the orchestrator binds at this
switch and the next hops of the topology it belongs to.  Only a packet no
rule matches is punted to the controller (packet-in), so a dead controller
costs the table misses and nothing that installed rules carry.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Optional

from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.sdn.flowrule import Action, FlowRule, table_order
from repro.sdn.tunnel import TUNNEL_PROTOCOL, tunnel_packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator
    from repro.netsim.topology import Topology

#: Cache-miss sentinel (``None`` is a valid cached lookup result).
_MISS = object()

#: What a packet no rule matches gets: the table-miss entry, packet-in.
#: A secured site's controller serves it (``normal`` again, once counted);
#: a plain site never misses, its catch-all rule is ``normal``.
_TABLE_MISS = (Action.controller(),)
_NORMAL = (Action.normal(),)

#: Megaflow cache floor: the cache may hold this many entries or four per
#: installed rule, whichever is more.  Conforming traffic needs a few keys
#: per rule (a fleet of N devices has O(N) rules and O(N) live 5-tuples),
#: so it never overflows; the bound only keeps pathological traffic (e.g.
#: a port-scanning attacker) from growing the cache past O(rules).
_LOOKUP_CACHE_MIN = 1024


def _bucket_keys(rules: Iterable[FlowRule]) -> tuple[set[str], set[Optional[str]]]:
    """The lookup buckets ``rules`` sit in: (src keys, dst keys).  A rule
    is filed under its concrete src, else under its dst (``None``: it
    names neither end and sits in the wildcard list)."""
    srcs: set[str] = set()
    dsts: set[Optional[str]] = set()
    for rule in rules:
        match = rule.match
        if match.src is not None:
            srcs.add(match.src)
        else:
            dsts.add(match.dst)
    return srcs, dsts


class Switch(Node):
    """A flow-table switch that forwards on its rules, punts table misses
    to the controller and filters rules by version.

    Rules come in groups, one per :attr:`FlowRule.owner`, and a group is
    the unit a configuration epoch replaces: liveness is decided per owner
    (:meth:`is_live`), a flip or a removal can be scoped to some owners,
    and both then cost what those groups hold, not what the table holds.
    """

    def __init__(self, name: str, sim: "Simulator") -> None:
        super().__init__(name, sim)
        self.flow_table: list[FlowRule] = []
        #: The newest epoch any flip activated here -- for readers and
        #: reports.  What a packet sees is per owner: ``_owner_version``.
        self.active_version: Optional[int] = None
        self._owner_version: dict[Optional[str], int] = {}
        #: owner -> its rules, every version of them.
        self._by_owner: dict[Optional[str], list[FlowRule]] = {}
        self.packet_in_handler: Optional[Callable[["Switch", Packet, int], None]] = None
        #: Source binding: the port behind which each identity the policy
        #: trusts sits (None: no port of this switch).  ``trunks`` -- the
        #: ports to other switches and to the µmbox cluster -- relay such
        #: traffic and are exempt.  A packet claiming a bound identity from
        #: any other port is dropped, counted in ``forged`` and reported to
        #: ``on_forgery``.
        self.bound: dict[str, Optional[int]] = {}
        self.trunks: set[int] = set()
        self.forged = 0
        self.on_forgery: Optional[Callable[["Switch", Packet, int], None]] = None
        self.punted = 0
        self.dropped = 0
        self.miss_drops = 0
        #: What a ``normal`` action reads, one dict probe each on a steady
        #: flow: the tunnel of every secured device attached here (the
        #: orchestrator writes it when it binds or unbinds one), and the
        #: next hop toward each destination, filled from ``routes`` (the
        #: topology this switch belongs to), which drops it with its own
        #: route tables.
        self.tunnels: dict[str, Action] = {}
        self.routes: Optional["Topology"] = None
        self.next_hops: dict[str, Optional[int]] = {}
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
        # 5-tuple + in_port -- the scan is the slow path, the cache hit is
        # one dict probe.  A table or epoch change forgets the keys its
        # rules' buckets can have answered (``_forget``), not the rest.
        self._lookup_cache: dict[tuple, Optional[FlowRule]] = {}
        # Observability: callback gauges over the counters above -- they
        # cost nothing until a snapshot samples them.
        metrics = sim.metrics
        self.metric_labels = {"switch": metrics.unique(name, "switch")}
        metrics.gauge("switch_punted", fn=lambda: self.punted, **self.metric_labels)
        metrics.gauge("switch_dropped", fn=lambda: self.dropped, **self.metric_labels)
        metrics.gauge("switch_miss_drops", fn=lambda: self.miss_drops, **self.metric_labels)
        metrics.gauge("switch_forged", fn=lambda: self.forged, **self.metric_labels)
        metrics.gauge("switch_table_size", fn=self.table_size, **self.metric_labels)

    # ------------------------------------------------------------------
    # Flow-table management (the controller calls these, via the channel)
    # ------------------------------------------------------------------
    def _index_drop(
        self, doomed: list[FlowRule], srcs: set[str], dsts: set[Optional[str]]
    ) -> None:
        """Take ``doomed``, filed under ``srcs``/``dsts``, out of the
        buckets and groups that hold them."""
        gone = {id(rule) for rule in doomed}
        if None in dsts:
            self._wild = [entry for entry in self._wild if id(entry[1]) not in gone]
        for index, keys in ((self._by_src, srcs), (self._by_dst, dsts - {None})):
            for key in keys:
                kept = [entry for entry in index[key] if id(entry[1]) not in gone]
                if kept:
                    index[key] = kept
                else:
                    del index[key]
        for owner in {rule.owner for rule in doomed}:
            kept = [rule for rule in self._by_owner[owner] if id(rule) not in gone]
            if kept:
                self._by_owner[owner] = kept
            else:
                del self._by_owner[owner]

    def _forget(self, srcs: set[str], dsts: set[Optional[str]]) -> None:
        """Drop the cached answers (misses included) that rules filed
        under ``srcs``/``dsts`` can have decided or could now decide: a
        lookup only ever reads the buckets of the packet's own src and
        dst, so those are the keys whose src or dst names one of them.  A
        rule that names neither end can answer for any packet: everything
        goes."""
        cache = self._lookup_cache
        if None in dsts:
            cache.clear()
        else:
            for key in [key for key in cache if key[0] in srcs or key[1] in dsts]:
                del cache[key]

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
        table, by_owner = self.flow_table, self._by_owner
        by_src, by_dst = self._by_src, self._by_dst
        for rule in rules:
            insort(table, rule, key=table_order)
            match = rule.match
            # One bucket per rule, the one ``_bucket_keys`` names.
            if match.src is not None:
                bucket = by_src.setdefault(match.src, [])
            elif match.dst is not None:
                bucket = by_dst.setdefault(match.dst, [])
            else:
                bucket = self._wild
            bucket.append((rule.sort_key(), rule))
            by_owner.setdefault(rule.owner, []).append(rule)
        if self._lookup_cache:
            self._forget(*_bucket_keys(rules))

    def remove_where(
        self,
        predicate: Callable[[FlowRule], bool],
        owners: Collection[Optional[str]] | None = None,
    ) -> int:
        """Remove rules satisfying ``predicate``; returns how many.

        ``owners`` (distinct) narrows the search to those rule groups, and
        the call then costs what they hold.  Either way only the removed
        rules' index entries and cached answers go with them.
        """
        if owners is None:
            kept: list[FlowRule] = []
            doomed: list[FlowRule] = []
            for rule in self.flow_table:
                (doomed if predicate(rule) else kept).append(rule)
            if doomed:
                self.flow_table = kept
        else:
            doomed = [
                rule
                for owner in owners
                for rule in self._by_owner.get(owner, ())
                if predicate(rule)
            ]
            table = self.flow_table
            for rule in doomed:
                at = bisect_left(table, rule.sort_key(), key=table_order)
                while table[at] is not rule:  # equal keys: colliding rule ids
                    at += 1
                del table[at]
        if doomed:
            srcs, dsts = _bucket_keys(doomed)
            self._index_drop(doomed, srcs, dsts)
            self._forget(srcs, dsts)
        return len(doomed)

    def remove_version(self, version: int) -> int:
        """Remove all rules of a configuration epoch."""
        return self.remove_where(lambda r: r.version == version)

    def set_active_version(
        self, version: int, owners: Collection[Optional[str]] | None = None
    ) -> None:
        """Flip to a configuration epoch (two-phase update commit).

        ``owners`` is the epoch's scope, the rule groups it replaces;
        without one the epoch is the complete table, so every group the
        switch holds or has ever flipped is in scope.  Versions are
        monotone per owner: concurrent pushes may flip out of order, and
        an owner already on a newer epoch stays there.
        """
        if owners is None:
            owners = self._by_owner.keys() | self._owner_version.keys()
            self._lookup_cache.clear()
        else:
            self._forget(
                *_bucket_keys(
                    rule for owner in owners for rule in self._by_owner.get(owner, ())
                )
            )
        running = self._owner_version
        for owner in owners:
            if running.get(owner, version) <= version:
                running[owner] = version
        if self.active_version is None or version > self.active_version:
            self.active_version = version

    def is_live(self, rule: FlowRule) -> bool:
        """The one liveness predicate: a rule is live when it is
        version-independent or carries its owner's active version."""
        return rule.version is None or rule.version == self._owner_version.get(rule.owner)

    def is_superseded(self, rule: FlowRule) -> bool:
        """Versioned and older than its owner's active epoch: what a flip
        garbage-collects.  (Newer than it is an epoch still waiting.)"""
        return rule.version is not None and rule.version < self._owner_version.get(
            rule.owner, rule.version
        )

    def lookup(self, packet: Packet, in_port: int) -> Optional[FlowRule]:
        """Highest-priority live (:meth:`is_live`) rule matching the
        packet, or None."""
        src = packet.src
        dst = packet.dst
        protocol = packet.protocol
        sport = packet.sport
        dport = packet.dport
        cache_key = (src, dst, protocol, sport, dport, in_port)
        cached = self._lookup_cache.get(cache_key, _MISS)
        if cached is not _MISS:
            return cached
        is_live = self.is_live
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
                # Version-independent rules are live by definition; which
                # epoch of an owner's runs is ``is_live``'s to say.
                if rule.version is not None and not is_live(rule):
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
        # The one source-binding probe: an unbound source reads its own port.
        if self.bound.get(packet.src, in_port) != in_port and in_port not in self.trunks:
            self.forged += 1
            if self.on_forgery is not None:
                self.on_forgery(self, packet, in_port)
            return
        inspected_by = None
        if (
            packet.protocol == TUNNEL_PROTOCOL
            and packet.dst == self.name
            and packet.payload.get("inspected")
        ):
            # A µmbox returned an inspected packet: decapsulate and run the
            # inner packet through the table.  The in_port is the
            # cluster-facing port, which the orchestrator's bypass rules
            # key on -- that is what prevents re-tunnelling loops.  The
            # inspector's mark lasts for this lookup and its actions only.
            payload = packet.payload
            packet = payload["inner"]
            packet.inspected_by = inspected_by = payload["target"]
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
            actions = _TABLE_MISS
        else:
            rule.hits += 1
            rule.hit_bytes += packet.size
            actions = rule.actions
        self._apply(actions, packet, in_port)
        if inspected_by is not None:
            packet.inspected_by = None

    def forward_normal(self, packet: Packet, in_port: int) -> None:
        """Apply a ``normal`` action to ``packet``: what a controller does
        with a table miss it serves."""
        self._apply(_NORMAL, packet, in_port)

    def _next_hop(self, dst: str) -> Optional[int]:
        """The next-hop port toward ``dst`` (None: no route), cached."""
        routes = self.routes
        port = self.next_hops[dst] = (
            routes.next_hop_port(self.name, dst) if routes is not None else None
        )
        return port

    def _apply(self, actions: tuple[Action, ...], packet: Packet, in_port: int) -> None:
        # Ordered by data-path frequency: conforming edge traffic comes
        # back from its µmbox (or skips it, a blind flow) to a ``normal``
        # rule, and tunnels on the way in; controller/forward/drop are
        # colder.  A re-tunnel a ``normal`` action makes here is not
        # another ``_apply`` call, so a wrapper interposed on this method
        # (``routing_attacks``) does not see it as a tunnel action.
        for action in actions:
            kind = action.kind
            if kind == "normal":
                dst = packet.dst
                inspected_by = packet.inspected_by
                tunnel = self.tunnels.get(dst)
                if tunnel is None or dst == inspected_by:
                    port = self.next_hops.get(dst, _MISS)
                    if port is _MISS:
                        port = self._next_hop(dst)
                    # Only an inspected return may hairpin: it came back
                    # from the cluster on the uplink it must leave by.
                    if port is not None and (port != in_port or inspected_by is not None):
                        self.ports[port].transmit(self, packet)
                    continue
                # Device-to-device: the destination's µmbox has not seen
                # the packet yet.
                action, kind = tunnel, "tunnel"
            if kind == "tunnel":
                self.ports[action.port].transmit(
                    self, tunnel_packet(packet, self.name, action.target, action.via)
                )
            elif kind == "controller":
                handler = self.packet_in_handler
                if handler is not None:
                    self.punted += 1
                    handler(self, packet, in_port)
                else:
                    self.miss_drops += 1
            elif kind == "forward":
                # A rule names this port: it may be unattached, which
                # ``Node.send`` answers by not sending.
                Node.send(self, packet, action.port)
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
