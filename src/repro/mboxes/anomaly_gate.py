"""The anomaly-detection µmbox element.

Section 3.2's postures include "the set of anomaly detection ... rules
that need to be applied".  This element wraps the learning subsystem's
context-conditional :class:`BehaviorProfile` into the data plane:

- during the **training window** it observes device-bound commands and
  builds the profile (and never blocks);
- afterwards it scores each command against the profile, conditioned on a
  configured context key from the global view (occupancy by default, per
  the paper's "thermostat ... is normal if the user is present and
  anomalous otherwise" example);
- anomalous commands raise an alert and, in enforcing mode, are dropped.

This gives IoTSec a defence for attacks with *no signature and no flaw* --
a stolen session token replayed from a strange source at a strange time.
"""

from __future__ import annotations

from repro.learning.anomaly import BehaviorEvent, BehaviorProfile
from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet


class AnomalyGate(Element):
    """Profile-based command gating for one device."""

    name = "anomaly_gate"

    def __init__(
        self,
        device: str,
        training_window: float = 3600.0,
        context_key: str = "env:occupancy",
        threshold: float = 0.05,
        min_training: int = 10,
        enforce: bool = True,
    ) -> None:
        if training_window < 0:
            raise ValueError("training_window must be >= 0")
        self.device = device
        self.training_window = training_window
        self.context_key = context_key
        self.enforce = enforce
        self.profile = BehaviorProfile(
            device, threshold=threshold, min_training=min_training
        )
        self._started_at: float | None = None
        self.flagged = 0

    def _event(self, packet: Packet, ctx: MboxContext) -> BehaviorEvent:
        context_value = ctx.view(self.context_key) or "unknown"
        return BehaviorEvent(
            device=self.device,
            command=str(packet.payload.get("cmd")),
            source=packet.src,
            context=f"{self.context_key}={context_value}",
        )

    def in_training(self, now: float) -> bool:
        if self._started_at is None:
            return True
        return now - self._started_at < self.training_window

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        if packet.direction != "to_device" or "cmd" not in packet.payload:
            return PASS, packet
        if self._started_at is None:
            self._started_at = ctx.now
        event = self._event(packet, ctx)
        if self.in_training(ctx.now):
            self.profile.observe(event)
            return PASS, packet
        if self.profile.is_anomalous(event):
            self.flagged += 1
            ctx.alert(
                "anomalous-command",
                cmd=event.command,
                src=event.source,
                context=event.context,
                score=round(self.profile.score(event), 3),
            )
            if self.enforce:
                return DROP, packet
        else:
            # normal events seen after training keep refining the profile
            self.profile.observe(event)
        return PASS, packet

    def describe(self) -> str:
        mode = "enforce" if self.enforce else "alert-only"
        return (
            f"anomaly_gate({self.device}, ctx={self.context_key}, "
            f"train={self.training_window:.0f}s, {mode})"
        )
