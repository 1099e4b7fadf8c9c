"""OpenFlow-style Match -> Action flow rules.

This is also the paper's first strawman policy abstraction (section 3.1):
"a set of Match -> Action pairs, where the Match predicate is typically
specified in terms of packet headers".  The FSM policy abstraction of
section 3.2 ultimately *compiles down* to these rules plus µmbox postures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from repro.netsim.packet import Packet

_RULE_IDS = itertools.count(1)


@dataclass(frozen=True, slots=True)
class FlowMatch:
    """A header-level match predicate.  ``None`` fields are wildcards."""

    src: Optional[str] = None
    dst: Optional[str] = None
    protocol: Optional[str] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    in_port: Optional[int] = None

    def matches(self, packet: Packet, in_port: int | None = None) -> bool:
        """True when every non-wildcard field equals the packet's field."""
        if self.src is not None and packet.src != self.src:
            return False
        if self.dst is not None and packet.dst != self.dst:
            return False
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.sport is not None and packet.sport != self.sport:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        if self.in_port is not None and in_port != self.in_port:
            return False
        return True

    def specificity(self) -> int:
        """Number of concrete (non-wildcard) fields; used for tie-breaking."""
        return sum(
            value is not None
            for value in (
                self.src,
                self.dst,
                self.protocol,
                self.sport,
                self.dport,
                self.in_port,
            )
        )

    def overlaps(self, other: "FlowMatch") -> bool:
        """True when some packet could match both predicates.

        Two matches overlap unless a shared concrete field disagrees.  Used
        by the policy conflict checker (section 3.1's "recipes ... can lead
        to conflicts").
        """
        for attr in ("src", "dst", "protocol", "sport", "dport", "in_port"):
            mine = getattr(self, attr)
            theirs = getattr(other, attr)
            if mine is not None and theirs is not None and mine != theirs:
                return False
        return True

    def subsumes(self, other: "FlowMatch") -> bool:
        """True when every packet matching ``other`` also matches ``self``."""
        for attr in ("src", "dst", "protocol", "sport", "dport", "in_port"):
            mine = getattr(self, attr)
            theirs = getattr(other, attr)
            if mine is not None and mine != theirs:
                return False
        return True


@dataclass(frozen=True, slots=True)
class Action:
    """A forwarding action.

    ``kind`` is one of:

    - ``"normal"`` -- OpenFlow's NORMAL output, resolved by the switch
      itself: into the destination's tunnel when the destination is a
      secured device attached there whose µmbox has not yet seen the
      packet, else out of the next-hop port toward the destination.
    - ``"forward"`` -- output on ``port``.
    - ``"drop"`` -- discard.
    - ``"controller"`` -- punt to the controller (packet-in): a secured
      site's table-miss entry.
    - ``"tunnel"`` -- encapsulate toward the µmbox bound to ``target`` and
      output on ``port`` (the port facing the security cluster).  ``via``
      optionally names the cluster host: multi-switch topologies address
      the outer packet to it so intermediate switches can route the tunnel.
    """

    kind: str
    port: Optional[int] = None
    target: Optional[str] = None
    via: Optional[str] = None

    KINDS = ("normal", "forward", "drop", "controller", "tunnel")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown action kind {self.kind!r}")
        if self.kind in ("forward", "tunnel") and self.port is None:
            raise ValueError(f"{self.kind} action requires a port")
        if self.kind == "tunnel" and self.target is None:
            raise ValueError("tunnel action requires a target µmbox name")

    @classmethod
    def normal(cls) -> "Action":
        return cls("normal")

    @classmethod
    def forward(cls, port: int) -> "Action":
        return cls("forward", port=port)

    @classmethod
    def drop(cls) -> "Action":
        return cls("drop")

    @classmethod
    def controller(cls) -> "Action":
        return cls("controller")

    @classmethod
    def tunnel(cls, target: str, port: int, via: str | None = None) -> "Action":
        return cls("tunnel", port=port, target=target, via=via)


@dataclass
class FlowRule:
    """A prioritized Match -> Action rule with counters.

    ``version`` tags the configuration epoch that installed the rule; the
    two-phase consistent updater (:mod:`repro.sdn.consistency`) uses it to
    flip whole rule sets atomically.  ``None`` means version-independent.

    ``owner`` names the rule group the rule is installed, flipped and
    removed with -- the orchestrator stamps the secured device -- so an
    epoch can replace one group and leave the rest of the table alone.
    Whoever builds the rule says whose it is; the switch never infers it
    from the match.  ``None`` is the group of everything unclaimed.
    """

    match: FlowMatch
    actions: tuple[Action, ...]
    priority: int = 100
    version: Optional[int] = None
    rule_id: int = field(default_factory=lambda: next(_RULE_IDS))
    hits: int = 0
    hit_bytes: int = 0
    owner: Optional[str] = None

    def __post_init__(self) -> None:
        self.actions = tuple(self.actions)
        if not self.actions:
            raise ValueError("a flow rule needs at least one action")
        # priority/match/rule_id never change after construction, and every
        # sorted insert and bucketed lookup compares on this
        self._sort_key = (-self.priority, -self.match.specificity(), self.rule_id)

    def record_hit(self, packet: Packet) -> None:
        self.hits += 1
        self.hit_bytes += packet.size

    def sort_key(self) -> tuple[int, int, int]:
        """Higher priority first, then more specific, then older."""
        return self._sort_key


#: :meth:`FlowRule.sort_key` as a ``key=`` function with no Python frame:
#: a sorted insert into a flow table calls it once per bisection step.
table_order = attrgetter("_sort_key")
