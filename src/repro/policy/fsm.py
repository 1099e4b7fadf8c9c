"""The FSM policy abstraction (paper section 3.2).

A :class:`PolicyFSM` maps system states to per-device security postures.
Because full enumeration "may not be practical as the number of devices and
states scale", the FSM is *rule-based*: an ordered list of
:class:`PostureRule` (state predicate -> device posture), with the
brute-force enumeration retained as an explicit method so experiment E1 can
measure exactly how impractical it is.

Lookup semantics: for a device, the highest-priority rule whose predicate
matches the current state wins; ties break to the more specific predicate,
then to the earlier-defined rule (all deterministic).  Devices with no
matching rule get the FSM's default posture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.policy.context import ContextDomain, StateSpace, SystemState, Variable
from repro.policy.posture import ALLOW_ALL, Posture

_RULE_IDS = itertools.count(1)


@dataclass(frozen=True)
class StatePredicate:
    """A conjunction of ``variable == value`` requirements.

    The empty predicate matches every state (used for defaults).
    """

    requirements: tuple[tuple[str, str], ...] = ()

    @classmethod
    def make(cls, requirements: Mapping[str, str] | Iterable[tuple[str, str]]) -> "StatePredicate":
        if isinstance(requirements, Mapping):
            items = requirements.items()
        else:
            items = list(requirements)
        return cls(tuple(sorted(items)))

    def matches(self, state: SystemState) -> bool:
        return all(state.get(key) == value for key, value in self.requirements)

    def variables(self) -> set[str]:
        return {key for key, __ in self.requirements}

    @property
    def specificity(self) -> int:
        return len(self.requirements)

    def overlaps(self, other: "StatePredicate") -> bool:
        """Some state can satisfy both predicates unless a shared variable
        is pinned to different values."""
        mine = dict(self.requirements)
        for key, value in other.requirements:
            if key in mine and mine[key] != value:
                return False
        return True

    def subsumes(self, other: "StatePredicate") -> bool:
        """Every state matching ``other`` also matches ``self``."""
        theirs = dict(other.requirements)
        return all(theirs.get(key) == value for key, value in self.requirements)

    def __str__(self) -> str:
        if not self.requirements:
            return "<always>"
        return " & ".join(f"{k}={v}" for k, v in self.requirements)


@dataclass
class PostureRule:
    """``when <predicate> then <device> gets <posture>``."""

    predicate: StatePredicate
    device: str
    posture: Posture
    priority: int = 100
    rule_id: int = field(default_factory=lambda: next(_RULE_IDS))
    hits: int = 0

    def sort_key(self) -> tuple[int, int, int]:
        return (-self.priority, -self.predicate.specificity, self.rule_id)


class PolicyFSM:
    """The complete policy: domains + rules + default posture."""

    def __init__(
        self,
        domains: Iterable[ContextDomain],
        rules: Iterable[PostureRule] = (),
        default_posture: Posture = ALLOW_ALL,
        devices: Iterable[str] = (),
    ) -> None:
        self.space = StateSpace(domains)
        self.rules: list[PostureRule] = sorted(rules, key=PostureRule.sort_key)
        self.default_posture = default_posture
        self._rules_by_device: dict[str, list[PostureRule]] | None = None
        #: Bumped by :meth:`add_rule`, the only mutator: forms derived from
        #: the policy (its serialized section) are valid while it stands.
        self.revision = 0
        #: ``(revision, dict, canonical JSON bytes)`` memo owned by this
        #: policy and filled by
        #: :func:`repro.policy.serialization.policy_section`.
        self._section: tuple[int, dict, bytes] | None = None
        known = {
            v.name for v in self.space.variables() if v.kind == "ctx"
        }
        known.update(devices)
        known.update(rule.device for rule in self.rules)
        self.devices: tuple[str, ...] = tuple(sorted(known))
        self._validate()

    def _validate(self) -> None:
        valid_keys = {v.key for v in self.space.variables()}
        for rule in self.rules:
            unknown = rule.predicate.variables() - valid_keys
            if unknown:
                raise ValueError(
                    f"rule for {rule.device}: predicate references unknown "
                    f"variables {sorted(unknown)}"
                )
            for key, value in rule.predicate.requirements:
                domain = self.space.domain_of(key)
                if value not in domain.values:
                    raise ValueError(
                        f"rule for {rule.device}: {key}={value!r} not in "
                        f"domain {domain.values}"
                    )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def add_rule(self, rule: PostureRule) -> None:
        self.rules.append(rule)
        self.rules.sort(key=PostureRule.sort_key)
        self._rules_by_device = None
        self.revision += 1
        if rule.device not in self.devices:
            self.devices = tuple(sorted({*self.devices, rule.device}))
        self._validate()

    def rule_for(self, state: SystemState, device: str) -> PostureRule | None:
        """The winning rule for ``device`` in ``state`` (None = default).

        This is the explain API behind incident reconstruction: it answers
        *why* a device has its posture without counting a hit.
        """
        for rule in self.rules:
            if rule.device == device and rule.predicate.matches(state):
                return rule
        return None

    def posture_for(self, state: SystemState, device: str) -> Posture:
        """The winning posture for ``device`` in ``state``."""
        rule = self.rule_for(state, device)
        if rule is not None:
            rule.hits += 1
            return rule.posture
        return self.default_posture

    def postures(self, state: SystemState) -> dict[str, Posture]:
        """Posture assignment for every known device in ``state``."""
        return {device: self.posture_for(state, device) for device in self.devices}

    # ------------------------------------------------------------------
    # Brute-force enumeration (experiment E1's baseline)
    # ------------------------------------------------------------------
    def state_count(self) -> int:
        """``|S|`` without materializing anything."""
        return self.space.size()

    def enumerate_states(self, limit: int | None = None) -> Iterator[SystemState]:
        return self.space.enumerate(limit=limit)

    def materialize(self, limit: int | None = None) -> dict[SystemState, dict[str, Posture]]:
        """The full (state -> device -> posture) table.

        This is the "brute force" representation section 3.2 warns about;
        E1 measures its growth against the pruned representations.
        """
        table: dict[SystemState, dict[str, Posture]] = {}
        for state in self.enumerate_states(limit=limit):
            table[state] = self.postures(state)
        return table

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def rules_for(self, device: str) -> list[PostureRule]:
        # Grouped lazily so hot callers (projection, pruning, hierarchy
        # partitioning) see O(own rules), not O(all rules), per device.
        # The grouping preserves the sorted table order, and ``add_rule``
        # invalidates it.
        if self._rules_by_device is None:
            grouped: dict[str, list[PostureRule]] = {}
            for rule in self.rules:
                grouped.setdefault(rule.device, []).append(rule)
            self._rules_by_device = grouped
        return list(self._rules_by_device.get(device, ()))

    def referenced_variables(self) -> set[str]:
        """Variables any rule actually tests (pruning's raw material)."""
        refs: set[str] = set()
        for rule in self.rules:
            refs.update(rule.predicate.variables())
        return refs

    def __repr__(self) -> str:
        return (
            f"PolicyFSM({len(self.space.domains)} vars, |S|={self.state_count()}, "
            f"{len(self.rules)} rules, {len(self.devices)} devices)"
        )
