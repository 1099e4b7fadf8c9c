"""Security contexts, environment levels, and system states.

Section 3.2: "suppose we have D networked IoT devices, and each Di has a
security context Ci, which can take one or more values (e.g., 'normal' or
'suspicious' or 'unpatched').  Second, suppose we have E environmental
variables ... Now, we can represent the set of possible states S of the
system in terms of these device contexts and environmental variables."

We name policy variables uniformly -- ``ctx:<device>`` for device security
contexts and ``env:<variable>`` for environment levels -- so every layer
(FSM, pruning, fuzzing, controller view) speaks the same state vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

# Canonical device security-context values (the paper's examples).
NORMAL = "normal"
SUSPICIOUS = "suspicious"
COMPROMISED = "compromised"
UNPATCHED = "unpatched"

DEFAULT_CONTEXT_DOMAIN: tuple[str, ...] = (NORMAL, SUSPICIOUS, COMPROMISED)

#: Severity ordering for context escalation.  Contexts only move *up* this
#: scale; lowering one is an explicit administrative act (``clear_context``).
SEVERITY: dict[str, int] = {NORMAL: 0, UNPATCHED: 1, SUSPICIOUS: 2, COMPROMISED: 3}


@dataclass(frozen=True)
class Variable:
    """A policy variable: a device context or an environment variable."""

    kind: str  # "ctx" | "env"
    name: str

    def __post_init__(self) -> None:
        if self.kind not in ("ctx", "env"):
            raise ValueError(f"variable kind must be ctx or env, got {self.kind!r}")

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.name}"

    @classmethod
    def parse(cls, key: str) -> "Variable":
        kind, __, name = key.partition(":")
        return cls(kind, name)

    def __str__(self) -> str:
        return self.key


def ctx(device: str) -> Variable:
    """The security-context variable of a device."""
    return Variable("ctx", device)


def env(name: str) -> Variable:
    """An environment-level variable."""
    return Variable("env", name)


@dataclass(frozen=True)
class ContextDomain:
    """A variable together with its finite value domain."""

    variable: Variable
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError(f"{self.variable}: empty domain")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"{self.variable}: duplicate values {self.values}")

    @property
    def size(self) -> int:
        return len(self.values)


class SystemState(Mapping[str, str]):
    """One joint assignment of every policy variable: an element of S.

    Immutable and hashable so it can key posture tables.  Construct from a
    plain dict of ``variable key -> value``.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, assignment: Mapping[str, str]) -> None:
        self._items: tuple[tuple[str, str], ...] = tuple(sorted(assignment.items()))
        self._hash = hash(self._items)

    def __getitem__(self, key: str) -> str:
        for k, v in self._items:
            if k == key:
                return v
        raise KeyError(key)

    def __iter__(self) -> Iterator[str]:
        return iter(k for k, __ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SystemState):
            return self._items == other._items
        return NotImplemented

    def updated(self, changes: Mapping[str, str]) -> "SystemState":
        merged = dict(self._items)
        merged.update(changes)
        return SystemState(merged)

    def project(self, keys: Iterable[str]) -> "SystemState":
        """Restriction of the state to a subset of variables."""
        wanted = set(keys)
        return SystemState({k: v for k, v in self._items if k in wanted})

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"SystemState({body})"


class StateSpace:
    """The full combinatorial space ``S`` over a set of domains.

    :meth:`size` is computed without materializing (the whole point of E1:
    the count explodes long before memory does); :meth:`enumerate` yields
    lazily for spaces small enough to walk.
    """

    def __init__(self, domains: Iterable[ContextDomain]) -> None:
        self.domains: tuple[ContextDomain, ...] = tuple(domains)
        self._by_key = {d.variable.key: d for d in self.domains}
        if len(self._by_key) != len(self.domains):
            raise ValueError("duplicate variables in state space")

    def size(self) -> int:
        """``|S| = prod_i |Ci| x prod_j |Ej|`` (section 3.2)."""
        return math.prod(d.size for d in self.domains)

    def enumerate(self, limit: int | None = None) -> Iterator[SystemState]:
        """Yield every state, depth-first over domains.

        ``limit`` caps how many states are produced (guard for tests).
        """
        keys = [d.variable.key for d in self.domains]
        values = [d.values for d in self.domains]
        produced = 0

        def rec(index: int, acc: dict[str, str]) -> Iterator[SystemState]:
            nonlocal produced
            if limit is not None and produced >= limit:
                return
            if index == len(keys):
                produced += 1
                yield SystemState(acc)
                return
            for value in values[index]:
                acc[keys[index]] = value
                yield from rec(index + 1, acc)
                if limit is not None and produced >= limit:
                    return
            acc.pop(keys[index], None)

        yield from rec(0, {})

    def domain_of(self, variable: Variable | str) -> ContextDomain:
        key = variable.key if isinstance(variable, Variable) else variable
        return self._by_key[key]

    def variables(self) -> list[Variable]:
        return [d.variable for d in self.domains]
