"""Alert-storm load shedding: a bounded priority ingest queue.

The controller's ingest path is the one unbounded resource left in the
Figure-2 loop: every µmbox alert lands in ``_on_alert`` synchronously, so
a compromised device (or a buggy fleet) can melt the controller with
sheer volume -- and with it the only defense the paper's "unfixable"
devices have.  (Device state does not take this path: a view delta sets
view keys directly.)  The :class:`IngestQueue` puts a bounded,
prioritized, rate-limited stage in front of alert handling:

- **Classes** (strict priority): security alerts for devices under an
  *enforcing* posture first (they are already escalated -- losing their
  alerts means losing the enforcement feedback loop), then alerts for
  monitor-only devices.
- **Bounded capacity** with priority eviction: when the queue is full, an
  enforcing arrival evicts the newest monitor entry instead of being
  dropped itself (in FIFO mode the queue is plain drop-tail -- that is
  the "without shedding" comparison arm of bench E13).
- **Service model**: one message costs ``service_time`` simulated
  seconds, so arrival rates above ``1/service_time`` genuinely queue --
  reaction latency under overload is measurable, not hidden.

Per-class drop/processed counters and a depth gauge live in the metrics
registry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Event, Simulator

__all__ = [
    "CLASS_ENFORCING",
    "CLASS_MONITOR",
    "CLASS_NAMES",
    "IngestConfig",
    "IngestQueue",
]

#: Strict priority classes, lowest number served first.
CLASS_ENFORCING = 0   # security alert, device under an enforcing posture
CLASS_MONITOR = 1     # security alert, monitor-only (or unknown) device
CLASS_NAMES = ("enforcing", "monitor")


@dataclass(frozen=True)
class IngestConfig:
    """Knobs for the controller's ingest queue (``None`` = no queue).

    ``prioritized=False`` degrades the queue to a plain bounded FIFO --
    the "unprotected" arm of the storm bench.
    """

    capacity: int = 256
    service_time: float = 0.001
    prioritized: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive (got {self.capacity})")
        if self.service_time < 0:
            raise ValueError(f"service_time must be >= 0 (got {self.service_time})")


class IngestQueue:
    """Bounded priority queue between the control channel and the loop.

    ``handler(payload)`` is invoked once per serviced message, in strict
    class order (FIFO within a class).  ``on_processed(cls, latency)`` is
    an optional observation hook.
    """

    def __init__(
        self,
        sim: "Simulator",
        handler: Callable[[Any], None],
        config: IngestConfig | None = None,
        name: str = "controller",
    ) -> None:
        self.sim = sim
        self.handler = handler
        self.config = config or IngestConfig()
        self.name = name
        #: One FIFO per class (strict priority); in FIFO mode only a
        #: single global deque is used.  Entries are (cls, enqueued_at,
        #: payload).
        self._queues: tuple[deque, deque] = (deque(), deque())
        self._fifo: deque = deque()
        self._service_event: "Event | None" = None
        self.accepted = [0, 0]
        self.processed = [0, 0]
        self.dropped = [0, 0]
        self.on_processed: Callable[[int, float], None] | None = None
        metrics = sim.metrics
        self.metric_labels = {"queue": metrics.unique(f"ingest:{name}", "queue")}
        metrics.gauge("ingest_depth", fn=self.depth, **self.metric_labels)
        self._c_dropped = [
            metrics.counter("ingest_dropped", cls=cls, **self.metric_labels)
            for cls in CLASS_NAMES
        ]
        self._c_processed = [
            metrics.counter("ingest_processed", cls=cls, **self.metric_labels)
            for cls in CLASS_NAMES
        ]

    # ------------------------------------------------------------------
    def depth(self) -> int:
        # Only the configured mode's deques ever hold entries.
        enforcing, monitor = self._queues
        return len(enforcing) + len(monitor) + len(self._fifo)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def offer(self, cls: int, payload: Any) -> bool:
        """Enqueue one message; returns False when it was dropped."""
        cfg = self.config
        if self.depth() >= cfg.capacity and not self._make_room(cls):
            self._drop(cls)
            return False
        entry = (cls, self.sim.now, payload)
        if cfg.prioritized:
            self._queues[cls].append(entry)
        else:
            self._fifo.append(entry)
        self.accepted[cls] += 1
        if self._service_event is None:
            self._service_event = self.sim.schedule(cfg.service_time, self._service)
        return True

    def _make_room(self, cls: int) -> bool:
        """Full queue: an enforcing arrival evicts the newest monitor entry."""
        monitor = self._queues[CLASS_MONITOR]
        if not self.config.prioritized or cls != CLASS_ENFORCING or not monitor:
            return False  # FIFO drop-tail, or nothing lower to evict
        monitor.pop()
        self._drop(CLASS_MONITOR)
        return True

    def _drop(self, cls: int) -> None:
        self.dropped[cls] += 1
        self._c_dropped[cls].inc()

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _service(self) -> None:
        self._service_event = None
        entry = self._pop()
        if entry is None:
            return
        cls, enqueued_at, payload = entry
        self.processed[cls] += 1
        self._c_processed[cls].inc()
        if self.on_processed is not None:
            self.on_processed(cls, self.sim.now - enqueued_at)
        self.handler(payload)
        if self.depth() > 0 and self._service_event is None:
            self._service_event = self.sim.schedule(
                self.config.service_time, self._service
            )

    def _pop(self):
        if self.config.prioritized:
            for queue in self._queues:
                if queue:
                    return queue.popleft()
            return None
        return self._fifo.popleft() if self._fifo else None

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Discard everything queued (the owning controller crashed)."""
        n = self.depth()
        for queue in self._queues:
            queue.clear()
        self._fifo.clear()
        if self._service_event is not None:
            self.sim.cancel(self._service_event)
            self._service_event = None
        return n

    def stats(self) -> dict[str, Any]:
        return {
            "depth": self.depth(),
            "accepted": dict(zip(CLASS_NAMES, self.accepted)),
            "processed": dict(zip(CLASS_NAMES, self.processed)),
            "dropped": dict(zip(CLASS_NAMES, self.dropped)),
        }

    def __repr__(self) -> str:
        return (
            f"IngestQueue(depth={self.depth()}/{self.config.capacity}, "
            f"dropped={sum(self.dropped)})"
        )
