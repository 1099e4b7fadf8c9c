"""The common attack-signature format.

Section 4.1: "users could publish traces or signatures, expressed in a
common format, which other users could subscribe to."  A signature names
the SKU it applies to, a packet-level match, and the posture that
neutralizes the attack; µmbox IDSes evaluate the match, the controller acts
on the posture hint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.netsim.packet import Packet

_SIG_IDS = itertools.count(1)


@dataclass(frozen=True)
class SignatureMatch:
    """A packet predicate: header constraints plus payload content tests.

    ``payload_contains`` requires exact key/value matches; ``payload_keys``
    only requires the keys to be present (catching e.g. any login attempt).
    ``None`` header fields are wildcards.
    """

    protocol: str | None = None
    dport: int | None = None
    payload_contains: tuple[tuple[str, Any], ...] = ()
    payload_keys: tuple[str, ...] = ()
    min_size: int | None = None

    @classmethod
    def make(
        cls,
        protocol: str | None = None,
        dport: int | None = None,
        payload_contains: Mapping[str, Any] | None = None,
        payload_keys: tuple[str, ...] = (),
        min_size: int | None = None,
    ) -> "SignatureMatch":
        return cls(
            protocol=protocol,
            dport=dport,
            payload_contains=tuple(sorted((payload_contains or {}).items())),
            payload_keys=tuple(payload_keys),
            min_size=min_size,
        )

    def matches(self, packet: Packet) -> bool:
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        if self.dport is not None and packet.dport != self.dport:
            return False
        if self.min_size is not None and packet.size < self.min_size:
            return False
        for key, value in self.payload_contains:
            if packet.payload.get(key) != value:
                return False
        for key in self.payload_keys:
            if key not in packet.payload:
                return False
        return True


@dataclass
class AttackSignature:
    """One shareable unit of attack knowledge.

    Attributes
    ----------
    sku:
        The device SKU the signature was observed against -- the sharing
        granularity ("Google Nest version XYZ rather than 'thermostat'").
    flaw_class:
        The Table 1 taxonomy bucket.
    match:
        The packet predicate an IDS µmbox should alert on.
    recommended_posture:
        Name of the posture that mitigates the attack (keys into
        :data:`repro.core.orchestrator.POSTURE_RECIPES`).
    reporter:
        Contributor pseudonym (anonymized before distribution).
    reported_at:
        Simulated publication time.
    confidence:
        Repository-assigned trust in [0, 1], driven by reputation/votes.
    """

    sku: str
    flaw_class: str
    match: SignatureMatch
    recommended_posture: str = "quarantine"
    reporter: str = "anonymous"
    reported_at: float = 0.0
    confidence: float = 0.5
    sig_id: int = field(default_factory=lambda: next(_SIG_IDS))
    notes: str = ""

    def key(self) -> tuple[str, str, SignatureMatch]:
        """Identity for deduplication: same SKU, flaw and match."""
        return (self.sku, self.flaw_class, self.match)

    def to_dict(self) -> dict[str, Any]:
        """The interchange format published to the repository."""
        return {
            "sku": self.sku,
            "flaw_class": self.flaw_class,
            "match": {
                "protocol": self.match.protocol,
                "dport": self.match.dport,
                "payload_contains": dict(self.match.payload_contains),
                "payload_keys": list(self.match.payload_keys),
                "min_size": self.match.min_size,
            },
            "recommended_posture": self.recommended_posture,
            "reporter": self.reporter,
            "reported_at": self.reported_at,
            "confidence": self.confidence,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackSignature":
        match_data = data.get("match", {})
        return cls(
            sku=str(data["sku"]),
            flaw_class=str(data.get("flaw_class", "unknown")),
            match=SignatureMatch.make(
                protocol=match_data.get("protocol"),
                dport=match_data.get("dport"),
                payload_contains=match_data.get("payload_contains"),
                payload_keys=tuple(match_data.get("payload_keys", ())),
                min_size=match_data.get("min_size"),
            ),
            recommended_posture=str(data.get("recommended_posture", "quarantine")),
            reporter=str(data.get("reporter", "anonymous")),
            reported_at=float(data.get("reported_at", 0.0)),
            confidence=float(data.get("confidence", 0.5)),
            notes=str(data.get("notes", "")),
        )


#: The mitigation names :func:`repro.core.orchestrator.
#: build_recommended_posture` can materialize.  A signature recommending
#: anything else is either garbage or an attempt to make every site
#: actuate an attacker-chosen posture -- both are quarantined.
KNOWN_POSTURES = frozenset(
    {
        "password_proxy",
        "stateful_firewall",
        "command_whitelist",
        "dns_guard",
        "quarantine",
        "monitor",
    }
)


def validate_signature(wire: Any) -> str | None:
    """Why an interchange-format ``wire`` must not be published, or ``None``
    when it is clean.  Reasons start with ``malformed:`` or ``poisoned:``."""
    if not isinstance(wire, Mapping):
        return "malformed: not a mapping"
    sku = wire.get("sku")
    if not isinstance(sku, str) or not sku:
        return "malformed: missing sku"
    try:
        signature = AttackSignature.from_dict(wire)
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed: {exc}"
    if not 0.0 <= signature.confidence <= 1.0:
        return f"poisoned: confidence {signature.confidence} outside [0, 1]"
    if signature.recommended_posture not in KNOWN_POSTURES:
        return f"poisoned: unknown recommended posture {signature.recommended_posture!r}"
    return None


# Canned signatures for the Table 1 flaw classes, used to bootstrap
# experiments and as the "known attack" corpus.
def default_credential_signature(sku: str) -> AttackSignature:
    return AttackSignature(
        sku=sku,
        flaw_class="exposed-credentials",
        match=SignatureMatch.make(
            protocol="http",
            dport=80,
            payload_contains={"action": "login", "username": "admin", "password": "admin"},
        ),
        recommended_posture="password_proxy",
        notes="vendor default credential attempt",
    )


def backdoor_signature(sku: str, backdoor_port: int) -> AttackSignature:
    return AttackSignature(
        sku=sku,
        flaw_class="backdoor",
        match=SignatureMatch.make(dport=backdoor_port, payload_keys=("cmd",)),
        recommended_posture="stateful_firewall",
        notes="vendor debug backdoor command",
    )


def dns_amplification_signature(sku: str) -> AttackSignature:
    return AttackSignature(
        sku=sku,
        flaw_class="open-dns-resolver",
        match=SignatureMatch.make(protocol="dns", dport=53),
        recommended_posture="dns_guard",
        notes="open resolver abused for reflection",
    )
