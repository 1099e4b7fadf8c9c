"""The controller-side event bus.

Alerts from µmboxes, context reports from sensors, and lifecycle events
from the manager all flow through one bus so experiments can trace cause
(event) to effect (posture change) with timestamps.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

_EVENT_IDS = itertools.count(1)


@dataclass(slots=True)
class SecurityEvent:
    """Anything the controller might react to."""

    at: float
    kind: str          # "alert" | "context" | "telemetry" | "lifecycle" | ...
    source: str        # node or subsystem name
    device: str = ""   # the device concerned, when applicable
    body: dict[str, Any] = field(default_factory=dict)
    event_id: int = field(default_factory=lambda: next(_EVENT_IDS))


EventCallback = Callable[[SecurityEvent], None]


class EventBus:
    """Kind-keyed publish/subscribe with a bounded history."""

    def __init__(self, sim: "Simulator", history_limit: int = 10_000) -> None:
        self.sim = sim
        self.history_limit = history_limit
        self.history: list[SecurityEvent] = []
        # Subscriber lists are stored as immutable tuples so ``publish``
        # can iterate them directly: a subscribe() during delivery swaps
        # in a *new* tuple, leaving the in-flight iteration untouched --
        # the same snapshot semantics the old per-publish list() copies
        # provided, without the per-event allocation.
        self._subscribers: dict[str, tuple[EventCallback, ...]] = defaultdict(tuple)
        self._wildcard: tuple[EventCallback, ...] = ()
        self.published = 0
        #: Lifetime per-kind publish counters.  Unlike ``history`` these are
        #: never trimmed, so long runs can still report totals (e.g. how
        #: many pipeline rounds ran) without retaining every event.
        self.counts: dict[str, int] = defaultdict(int)

    def subscribe(self, kind: str, callback: EventCallback) -> None:
        """Subscribe to one kind, or ``"*"`` for everything."""
        if kind == "*":
            self._wildcard = self._wildcard + (callback,)
        else:
            self._subscribers[kind] = self._subscribers[kind] + (callback,)

    def publish(
        self,
        kind: str,
        source: str,
        device: str = "",
        **body: Any,
    ) -> SecurityEvent:
        event = SecurityEvent(self.sim.now, kind, source, device, body, next(_EVENT_IDS))
        self.published += 1
        self.counts[kind] += 1
        self.history.append(event)
        if len(self.history) > self.history_limit:
            del self.history[: len(self.history) // 2]
        for callback in self._subscribers.get(kind, ()):
            callback(event)
        for callback in self._wildcard:
            callback(event)
        return event

    def count(self, kind: str) -> int:
        """Lifetime number of events published with ``kind``."""
        return self.counts.get(kind, 0)

    def events(self, kind: str | None = None, device: str | None = None) -> list[SecurityEvent]:
        return [
            e
            for e in self.history
            if (kind is None or e.kind == kind)
            and (device is None or e.device == device)
        ]
