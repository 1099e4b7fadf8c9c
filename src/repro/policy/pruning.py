"""State-space pruning (paper section 3.2, closing paragraph).

"We believe that in practice it might be possible to prune and collapse
this giant FSM by exploiting some domain-specific opportunities.  For
example, if we know that two specific device types are inherently
independent, or if the intended security posture is the same for a set of
similar states, then we can potentially prune the state space."

Two reductions are implemented, both *sound* (lookup results are provably
identical to the brute-force FSM -- tests verify this with hypothesis):

1. **Independence projection**: a device's posture can only depend on the
   variables its rules actually test.  Instead of one table over the full
   product space we keep one small table per device over its *relevant*
   variables.  Storage falls from ``prod(all domains)`` to
   ``sum_D prod(relevant domains of D)``.

2. **Posture collapsing**: states mapping to identical posture assignments
   are merged into equivalence classes; the number of classes is bounded by
   the number of distinct postures, not the number of states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.policy.context import SystemState
from repro.policy.fsm import PolicyFSM
from repro.policy.posture import Posture


def relevant_variables(fsm: PolicyFSM, device: str) -> set[str]:
    """The variables that can influence ``device``'s posture."""
    refs: set[str] = set()
    for rule in fsm.rules_for(device):
        refs.update(rule.predicate.variables())
    return refs


def independence_groups(fsm: PolicyFSM) -> list[set[str]]:
    """Partition variables into groups coupled through some rule.

    Two variables are dependent when one rule's predicate tests both, or
    when both influence the same device's posture.  Independent groups can
    be monitored and updated by separate (local) controllers, as section
    5.1 proposes; :func:`crossing_devices` checks a given placement.
    """
    parent = {v.key: v.key for v in fsm.space.variables()}

    def find(key: str) -> str:
        root = parent.setdefault(key, key)
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:  # path compression
            parent[key], key = root, parent[key]
        return root

    for device in fsm.devices:
        refs = sorted(relevant_variables(fsm, device))
        # The device's own context is coupled to everything deciding it.
        own = f"ctx:{device}"
        if own in parent:
            refs.append(own)
        for a, b in zip(refs, refs[1:]):
            parent[find(a)] = find(b)
    groups: dict[str, set[str]] = {}
    for key in parent:
        groups.setdefault(find(key), set()).add(key)
    return list(groups.values())


def crossing_devices(fsm: PolicyFSM, partition: dict[str, int]) -> set[str]:
    """Devices whose posture couples to *another* partition's variables.

    ``partition`` places devices under local controllers (section 5.1).  A
    device is crossing when a variable its rules test is owned by another
    partition, or when its own context drives a device placed elsewhere:
    its events must escalate to the global controller.
    """
    # A device's context belongs to its partition; an env variable belongs
    # to the first partition whose rules test it.
    owner: dict[str, int] = {}
    for device, part in partition.items():
        owner[f"ctx:{device}"] = part
    for device in fsm.devices:
        part = partition.get(device)
        if part is None:
            continue
        for key in relevant_variables(fsm, device):
            owner.setdefault(key, part)

    crossing = set()
    for device in fsm.devices:
        part = partition.get(device)
        for key in relevant_variables(fsm, device):
            if owner.get(key, part) != part:
                crossing.add(device)
                break
        own_key = f"ctx:{device}"
        for other in fsm.devices:
            if other == device:
                continue
            if own_key in relevant_variables(fsm, other) and partition.get(
                other
            ) != part:
                crossing.add(device)
                break
    return crossing


@dataclass
class ProjectedTable:
    """One device's posture decision table over its relevant variables."""

    device: str
    variables: tuple[str, ...]
    table: dict[SystemState, Posture]
    default: Posture

    def lookup(self, state: SystemState) -> Posture:
        projected = state.project(self.variables)
        return self.table.get(projected, self.default)

    @property
    def size(self) -> int:
        return len(self.table)


_NO_DEVICES: frozenset[str] = frozenset()


class PrunedPolicy:
    """The FSM after independence projection.

    Semantically identical to the source FSM (same ``posture_for`` results)
    but with per-device tables whose joint size is typically orders of
    magnitude below ``|S|``.

    Alongside the tables it maintains a **reverse index** mapping each
    policy variable key to the set of devices whose posture can depend on
    it.  The controller's reactive pipeline uses it to turn "view key K
    changed" into the affected device set in O(1) instead of scanning
    every device's rule list.
    """

    def __init__(self, fsm: PolicyFSM) -> None:
        self.fsm = fsm
        self.tables: dict[str, ProjectedTable] = {}
        #: variable key -> devices whose rules reference it
        self.affected: dict[str, set[str]] = {}
        for device in fsm.devices:
            self._set_table(device, self._project(device))

    def _set_table(self, device: str, table: ProjectedTable) -> None:
        old = self.tables.get(device)
        if old is not None:
            for key in old.variables:
                bucket = self.affected.get(key)
                if bucket is not None:
                    bucket.discard(device)
        self.tables[device] = table
        for key in table.variables:
            self.affected.setdefault(key, set()).add(device)

    def devices_affected_by(self, key: str) -> frozenset[str] | set[str]:
        """Devices whose posture may change when variable ``key`` changes."""
        return self.affected.get(key, _NO_DEVICES)

    def add_rule(self, rule) -> None:
        """Incrementally incorporate a runtime rule.

        A :class:`PostureRule` binds exactly one device, so only that
        device's projected table (and its reverse-index entries) can
        change; every other table depends only on its own rules and the
        (unchanged) domains.  Hypothesis property tests verify lookups
        stay identical to a from-scratch rebuild.
        """
        self.fsm.add_rule(rule)
        self._set_table(rule.device, self._project(rule.device))

    def _project(self, device: str) -> ProjectedTable:
        variables = tuple(sorted(relevant_variables(self.fsm, device)))
        domains = [self.fsm.space.domain_of(key) for key in variables]
        table: dict[SystemState, Posture] = {}

        def rec(index: int, acc: dict[str, str]) -> None:
            if index == len(domains):
                projected = SystemState(acc)
                posture = self._rule_lookup(device, projected)
                if posture is not self.fsm.default_posture:
                    table[projected] = posture
                return
            for value in domains[index].values:
                acc[variables[index]] = value
                rec(index + 1, acc)
            acc.pop(variables[index], None)

        rec(0, {})
        return ProjectedTable(
            device=device,
            variables=variables,
            table=table,
            default=self.fsm.default_posture,
        )

    def _rule_lookup(self, device: str, projected: SystemState) -> Posture:
        """Rule lookup against a projected state.

        Sound because every rule for ``device`` only references variables
        inside the projection (by construction of ``relevant_variables``).
        """
        for rule in self.fsm.rules_for(device):
            if rule.predicate.matches(projected):
                return rule.posture
        return self.fsm.default_posture

    def posture_for(self, state: SystemState, device: str) -> Posture:
        table = self.tables.get(device)
        if table is None:
            return self.fsm.default_posture
        return table.lookup(state)

    def total_entries(self) -> int:
        """Joint stored size across all per-device tables."""
        return sum(t.size for t in self.tables.values())


@dataclass
class PruningReport:
    """The E1 measurement: brute force vs pruned vs collapsed sizes."""

    naive_states: int
    devices: int
    variables: int
    projected_entries: int
    projected_worst_case: int
    independence_group_count: int
    largest_group: int
    collapsed_classes: int | None = None
    per_device: dict[str, int] = field(default_factory=dict)

    @property
    def reduction_factor(self) -> float:
        if self.projected_entries == 0:
            return float("inf") if self.naive_states else 1.0
        return self.naive_states / self.projected_entries


def collapse_classes(fsm: PolicyFSM, enumerate_limit: int = 200_000) -> int | None:
    """Exact count of posture-equivalence classes, or None when |S| is too
    large to enumerate within the limit."""
    if fsm.state_count() > enumerate_limit:
        return None
    seen: set[tuple[tuple[str, str], ...]] = set()
    for state in fsm.enumerate_states():
        assignment = tuple(
            (device, posture.name)
            for device, posture in sorted(fsm.postures(state).items())
        )
        seen.add(assignment)
    return len(seen)


def analyze(fsm: PolicyFSM, enumerate_limit: int = 200_000) -> PruningReport:
    """Run both reductions and report the sizes (bench E1's core)."""
    pruned = PrunedPolicy(fsm)
    groups = independence_groups(fsm)
    per_device = {d: t.size for d, t in pruned.tables.items()}
    worst = 0
    for device in fsm.devices:
        variables = relevant_variables(fsm, device)
        worst += math.prod(
            fsm.space.domain_of(key).size for key in variables
        ) if variables else 1
    return PruningReport(
        naive_states=fsm.state_count(),
        devices=len(fsm.devices),
        variables=len(fsm.space.domains),
        projected_entries=pruned.total_entries(),
        projected_worst_case=worst,
        independence_group_count=len(groups),
        largest_group=max((len(g) for g in groups), default=0),
        collapsed_classes=collapse_classes(fsm, enumerate_limit),
        per_device=per_device,
    )
