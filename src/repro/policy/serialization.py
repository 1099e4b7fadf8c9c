"""Policy serialization: policies and postures as JSON config.

Deployments want policies in version control, reviewed like code and
shipped to controllers as data.  The format is a direct transliteration of
the FSM abstraction::

    {
      "domains": {"ctx:cam": ["normal", "suspicious", "compromised"],
                   "env:smoke": ["clear", "detected"]},
      "default_posture": {"name": "allow", "modules": []},
      "rules": [
        {"when": {"ctx:cam": "suspicious"},
         "device": "cam",
         "priority": 200,
         "posture": {"name": "firewall",
                      "modules": [{"kind": "stateful_firewall",
                                    "config": {"default": "drop"}}]}}
      ]
    }

Round-trip guarantee: ``loads(dumps(policy))`` evaluates identically to
``policy`` on every state (tested, including property-based).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.policy.context import ContextDomain, Variable
from repro.policy.fsm import PolicyFSM, PostureRule, StatePredicate
from repro.policy.posture import MboxSpec, Posture


# ----------------------------------------------------------------------
# Postures
# ----------------------------------------------------------------------
def posture_to_dict(posture: Posture) -> dict[str, Any]:
    data = {
        "name": posture.name,
        "description": posture.description,
        "modules": [
            {"kind": spec.kind, "config": spec.config_dict()}
            for spec in posture.modules
        ],
    }
    if posture.fail_mode:
        data["fail_mode"] = posture.fail_mode
    return data


def posture_from_dict(data: Mapping[str, Any]) -> Posture:
    modules = tuple(
        MboxSpec.make(str(m["kind"]), **dict(m.get("config", {})))
        for m in data.get("modules", ())
    )
    return Posture(
        name=str(data.get("name", "unnamed")),
        modules=modules,
        description=str(data.get("description", "")),
        fail_mode=str(data.get("fail_mode", "")),
    )


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
def policy_to_dict(policy: PolicyFSM) -> dict[str, Any]:
    return {
        "domains": {
            d.variable.key: list(d.values) for d in policy.space.domains
        },
        "devices": list(policy.devices),
        "default_posture": posture_to_dict(policy.default_posture),
        "rules": [
            {
                "when": dict(rule.predicate.requirements),
                "device": rule.device,
                "priority": rule.priority,
                "posture": posture_to_dict(rule.posture),
            }
            for rule in policy.rules
        ],
    }


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``'s encoder,
#: built once: ``dumps`` with those arguments builds a new one per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(value: Any) -> str:
    """The form content digests hash: sorted keys, no whitespace."""
    return _CANONICAL.encode(value)


def canonical_member(key: str, value: Any) -> str:
    """One ``"key":value`` member of a canonical JSON object, encoded on
    its own: joined with ``,`` in key order and braced, members make the
    object's canonical JSON."""
    return canonical_json({key: value})[1:-1]


def policy_section(policy: PolicyFSM) -> tuple[dict[str, Any], bytes]:
    """``policy_to_dict(policy)`` and its canonical JSON as UTF-8 (the
    bytes a checkpoint digest hashes), built once per policy revision.

    Every checkpoint captured while the revision stands shares the one
    dict, so it is read-only: ``add_rule`` bumps the revision and the next
    call builds a new pair, leaving retained checkpoints on the old one.
    Callers that want a dict to edit use :func:`policy_to_dict`.
    """
    memo = policy._section
    if memo is None or memo[0] != policy.revision:
        data = policy_to_dict(policy)
        memo = policy._section = (
            policy.revision,
            data,
            canonical_json(data).encode("utf-8"),
        )
    return memo[1], memo[2]


def policy_from_dict(data: Mapping[str, Any]) -> PolicyFSM:
    domains = [
        ContextDomain(Variable.parse(key), tuple(values))
        for key, values in data.get("domains", {}).items()
    ]
    rules = [
        PostureRule(
            predicate=StatePredicate.make(dict(entry.get("when", {}))),
            device=str(entry["device"]),
            posture=posture_from_dict(entry.get("posture", {})),
            priority=int(entry.get("priority", 100)),
        )
        for entry in data.get("rules", ())
    ]
    return PolicyFSM(
        domains=domains,
        rules=rules,
        default_posture=posture_from_dict(
            data.get("default_posture", {"name": "allow"})
        ),
        devices=tuple(data.get("devices", ())),
    )


def dumps(policy: PolicyFSM, indent: int | None = 2) -> str:
    return json.dumps(policy_to_dict(policy), indent=indent, sort_keys=True)


def loads(text: str) -> PolicyFSM:
    return policy_from_dict(json.loads(text))


def save(policy: PolicyFSM, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(policy))


def load(path: str) -> PolicyFSM:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())
