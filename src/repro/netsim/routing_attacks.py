"""Routing-layer attacks: a compromised switch degrading the fabric.

The routing-vulnerabilities literature (sinkhole, selective forwarding)
applied to the paper's own trust assumption: the µmbox architecture only
works while the edge fabric faithfully tunnels device traffic to the
cluster.  A :class:`RoutingAttack` models a compromised first-hop switch
that quietly breaks that assumption:

- **sinkhole** -- tunnel-bound packets are swallowed.  Device traffic
  simply never reaches its µmbox, so no verdicts, no alerts, no
  escalation: the defence goes dark without a single dropped-counter
  increment on the switch itself (the compromise is *silent* by design).
- **selective-forward** -- a seeded fraction of tunnel-bound packets is
  diverted: the tunneled copy is dropped and the raw packet is forwarded
  straight to its destination port instead, bypassing inspection.  The
  fabric still "works" from the user's point of view -- commands land,
  replies return -- which is exactly what makes the degradation hard to
  notice from connectivity alone.

The attack wraps the switch's action-application hook, so it sits below
the flow table and the megaflow cache: every ``tunnel`` action passes
through it while engaged.  A ``normal`` action passes through untouched,
so the re-tunnel it makes inside the switch (device-to-device traffic
into the destination's µmbox) escapes the wrapper.  ``disengage``
restores the pristine data path.
Engagement and disengagement are journaled (kind ``"routing-attack"``)
because the *simulation* is omniscient evidence even when the defence is
blind -- the incident timeline can show exactly when the fabric lied.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.packet import Packet
    from repro.netsim.switch import Switch

__all__ = ["ROUTING_ATTACK_KINDS", "RoutingAttack"]

#: The supported compromised-switch behaviors.
ROUTING_ATTACK_KINDS = ("sinkhole", "selective-forward")


class RoutingAttack:
    """One compromised switch, reversibly wrapping its data path."""

    def __init__(
        self,
        switch: "Switch",
        mode: str,
        seed: int = 0,
        drop_prob: float = 0.6,
        target: str | None = None,
        direct_ports: Mapping[str, int] | None = None,
    ) -> None:
        if mode not in ROUTING_ATTACK_KINDS:
            raise ValueError(
                f"mode must be one of {ROUTING_ATTACK_KINDS} (got {mode!r})"
            )
        if not 0.0 <= drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1] (got {drop_prob})")
        self.switch = switch
        self.sim = switch.sim
        self.mode = mode
        self.seed = seed
        self.rng = random.Random(seed)
        self.drop_prob = drop_prob
        #: Only packets to/from this device are affected (None = all).
        self.target = target
        #: Device -> switch port for the selective-forward bypass; without
        #: an entry the diverted packet is swallowed like a sinkhole.
        self.direct_ports = dict(direct_ports or {})
        self.sinkholed = 0
        self.bypassed = 0
        self.engaged_at: float | None = None
        self.disengaged_at: float | None = None
        self._original_apply = None
        self._shadowed_apply = None
        metrics = self.sim.metrics
        self.metric_labels = {"switch": metrics.unique(switch.name, "switch"), "mode": mode}
        metrics.gauge("routing_sinkholed", fn=lambda: self.sinkholed, **self.metric_labels)
        metrics.gauge("routing_bypassed", fn=lambda: self.bypassed, **self.metric_labels)

    # ------------------------------------------------------------------
    @property
    def engaged(self) -> bool:
        return self._original_apply is not None

    def _affects(self, packet: "Packet") -> bool:
        return self.target is None or self.target in (packet.src, packet.dst)

    def engage(self) -> None:
        """Compromise the switch: interpose on its action application."""
        if self.engaged:
            return
        switch = self.switch
        # Stacked attacks compose: remember whether a previous wrapper
        # already shadowed the class method so disengage can restore it.
        self._shadowed_apply = switch.__dict__.get("_apply")
        original = switch._apply
        self._original_apply = original
        mode = self.mode

        def compromised_apply(actions, packet, in_port):
            for action in actions:
                if action.kind == "tunnel" and self._affects(packet):
                    if mode == "sinkhole":
                        # Swallow silently: no drop counter, no punt --
                        # the µmbox simply never hears about the packet.
                        self.sinkholed += 1
                        continue
                    if self.rng.random() < self.drop_prob:
                        # Divert: lose the tunneled copy, hand the raw
                        # packet straight to its destination (uninspected).
                        port = self.direct_ports.get(packet.dst)
                        if port is not None:
                            self.bypassed += 1
                            switch.send(packet, port)
                        else:
                            self.sinkholed += 1
                        continue
                # Anything the attack leaves alone follows the real path.
                original((action,), packet, in_port)

        switch._apply = compromised_apply  # type: ignore[method-assign]
        self.engaged_at = self.sim.now
        self.sim.journal.record(
            "routing-attack",
            device=self.target or "",
            phase="engage",
            mode=self.mode,
            switch=switch.name,
            drop_prob=self.drop_prob if self.mode == "selective-forward" else 1.0,
        )

    def disengage(self) -> None:
        """Restore the pristine data path; journal what was stolen."""
        if not self.engaged:
            return
        if self._shadowed_apply is not None:
            self.switch._apply = self._shadowed_apply  # type: ignore[method-assign]
        else:
            del self.switch._apply  # uncovers the class method again
        self._shadowed_apply = None
        self._original_apply = None
        self.disengaged_at = self.sim.now
        self.sim.journal.record(
            "routing-attack",
            device=self.target or "",
            phase="disengage",
            mode=self.mode,
            switch=self.switch.name,
            sinkholed=self.sinkholed,
            bypassed=self.bypassed,
        )

    def stats(self) -> dict[str, object]:
        return {
            "switch": self.switch.name,
            "mode": self.mode,
            "target": self.target,
            "engaged": self.engaged,
            "engaged_at": self.engaged_at,
            "disengaged_at": self.disengaged_at,
            "sinkholed": self.sinkholed,
            "bypassed": self.bypassed,
        }
