"""The signature IDS µmbox element (Snort stand-in).

Holds a live set of :class:`AttackSignature` rules (typically fed by the
crowdsourced repository subscription) and alerts -- optionally drops -- on
matches.  Per-signature hit counters give the benches their detection
numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.learning.signatures import AttackSignature
from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet


class SignatureIDS(Element):
    """Rule-matching over the packets the µmbox sees."""

    name = "signature_ids"

    def __init__(
        self,
        signatures: Iterable[AttackSignature] = (),
        drop_on_match: bool = True,
        min_confidence: float = 0.0,
    ) -> None:
        self.signatures: dict[int, AttackSignature] = {}
        self.drop_on_match = drop_on_match
        self.min_confidence = min_confidence
        self.hits: Counter[int] = Counter()
        for signature in signatures:
            self.add_signature(signature)

    # ------------------------------------------------------------------
    # Rule management (live: the repository subscription calls these)
    # ------------------------------------------------------------------
    def add_signature(self, signature: AttackSignature) -> None:
        if signature.confidence >= self.min_confidence:
            self.signatures[signature.sig_id] = signature

    def remove_signature(self, sig_id: int) -> None:
        self.signatures.pop(sig_id, None)

    def rule_count(self) -> int:
        return len(self.signatures)

    # ------------------------------------------------------------------
    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        for signature in self.signatures.values():
            if signature.match.matches(packet):
                self.hits[signature.sig_id] += 1
                ctx.alert(
                    "signature-match",
                    sig_id=signature.sig_id,
                    flaw_class=signature.flaw_class,
                    recommended_posture=signature.recommended_posture,
                    src=packet.src,
                )
                if self.drop_on_match:
                    return DROP, packet
        return PASS, packet

    def describe(self) -> str:
        return f"signature_ids({len(self.signatures)} rules)"
