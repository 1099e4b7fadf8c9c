"""Alert-storm load shedding: a bounded priority ingest queue.

The controller's ingest path is the one unbounded resource left in the
Figure-2 loop: every µmbox alert and telemetry report lands in
``_on_alert`` synchronously, so a compromised device (or a buggy fleet)
can melt the controller with sheer volume -- and with it the only defense
the paper's "unfixable" devices have.  The :class:`IngestQueue` puts a
bounded, prioritized, rate-limited stage in front of alert handling:

- **Classes** (strict priority): security alerts for devices under an
  *enforcing* posture first (they are already escalated -- losing their
  alerts means losing the enforcement feedback loop), then alerts for
  monitor-only devices, then routine telemetry.
- **Bounded capacity** with priority eviction: when the queue is full, a
  higher-class arrival evicts the newest lowest-class entry instead of
  being dropped itself (in FIFO mode the queue is plain drop-tail --
  that is the "without shedding" comparison arm of bench E13).
- **Watermark shed mode**: above the high watermark the queue enters
  *shed mode* -- telemetry is dropped at the door and the ``on_shed``
  backpressure callback tells the µmbox hosts to sample telemetry locally
  (coalesce at the source instead of burning control-channel and queue
  budget).  Below the low watermark shedding ends and the callback
  releases the hosts.
- **Service model**: one message costs ``service_time`` simulated
  seconds, so arrival rates above ``1/service_time`` genuinely queue --
  reaction latency under overload is measurable, not hidden.

Per-class drop/processed counters and a shed-mode gauge live in the
metrics registry; shed transitions are journaled so incident
reconstruction shows *when* the controller started protecting what was
already escalated.
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
    "CLASS_TELEMETRY",
    "IngestConfig",
    "IngestQueue",
]

#: Strict priority classes, lowest number served first.
CLASS_ENFORCING = 0   # security alert, device under an enforcing posture
CLASS_MONITOR = 1     # security alert, monitor-only (or unknown) device
CLASS_TELEMETRY = 2   # routine telemetry
CLASS_NAMES = ("enforcing", "monitor", "telemetry")


@dataclass(frozen=True)
class IngestConfig:
    """Knobs for the controller's ingest queue (``None`` = no queue).

    ``high_watermark``/``low_watermark`` are fractions of ``capacity``;
    ``prioritized=False`` degrades the queue to a plain bounded FIFO and
    ``shed=False`` disables shed mode -- together they form the
    "unprotected" arm of the storm bench.
    """

    capacity: int = 256
    service_time: float = 0.001
    high_watermark: float = 0.75
    low_watermark: float = 0.25
    prioritized: bool = True
    shed: bool = True

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive (got {self.capacity})")
        if self.service_time < 0:
            raise ValueError(f"service_time must be >= 0 (got {self.service_time})")
        if not 0.0 < self.low_watermark <= self.high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low <= high <= 1 "
                f"(got low={self.low_watermark}, high={self.high_watermark})"
            )


class IngestQueue:
    """Bounded priority queue between the control channel and the loop.

    ``handler(payload)`` is invoked once per serviced message, in strict
    class order (FIFO within a class).  ``on_processed(cls, latency)``
    and ``on_shed(active)`` are optional observation/backpressure hooks.
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
        self._queues: tuple[deque, deque, deque] = (deque(), deque(), deque())
        self._fifo: deque = deque()
        self._service_event: "Event | None" = None
        self.shedding = False
        self.shed_transitions = 0
        self.accepted = [0, 0, 0]
        self.processed = [0, 0, 0]
        self.dropped = [0, 0, 0]
        self.on_shed: Callable[[bool], None] | None = None
        self.on_processed: Callable[[int, float], None] | None = None
        metrics = sim.metrics
        self.metric_labels = {"queue": metrics.unique(f"ingest:{name}")}
        metrics.gauge("ingest_depth", fn=self.depth, **self.metric_labels)
        metrics.gauge(
            "ingest_shed_mode", fn=lambda: int(self.shedding), **self.metric_labels
        )
        self._c_dropped = [
            metrics.counter("ingest_dropped", cls=cls, **self.metric_labels)
            for cls in CLASS_NAMES
        ]
        self._c_processed = [
            metrics.counter("ingest_processed", cls=cls, **self.metric_labels)
            for cls in CLASS_NAMES
        ]
        self._c_shed = metrics.counter("ingest_shed_transitions", **self.metric_labels)

    # ------------------------------------------------------------------
    def depth(self) -> int:
        # Only the configured mode's deques ever hold entries.
        enforcing, monitor, telemetry = self._queues
        return len(enforcing) + len(monitor) + len(telemetry) + len(self._fifo)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def would_shed(self, cls: int) -> bool:
        """Whether offering ``cls`` right now would be refused at the door.

        The durable telemetry stream consults this *before* consuming a
        bulk record: instead of offering and losing it, the consumer
        defers -- the record stays in the host's buffer and replays once
        shedding ends (defer-to-buffer instead of drop).
        """
        return self.shedding and self.config.shed and cls == CLASS_TELEMETRY

    def offer(self, cls: int, payload: Any) -> bool:
        """Enqueue one message; returns False when it was shed/dropped."""
        cfg = self.config
        if self.would_shed(cls):
            # Shed mode: telemetry is refused at the door -- the
            # backpressure signal asked the hosts to sample locally.
            self._drop(cls)
            return False
        if self.depth() >= cfg.capacity and not self._make_room(cls):
            self._drop(cls)
            return False
        entry = (cls, self.sim.now, payload)
        if cfg.prioritized:
            self._queues[cls].append(entry)
        else:
            self._fifo.append(entry)
        self.accepted[cls] += 1
        self._update_shed()
        if self._service_event is None:
            self._service_event = self.sim.schedule(cfg.service_time, self._service)
        return True

    def _make_room(self, cls: int) -> bool:
        """Full queue: evict the newest strictly-lower-class entry, if any."""
        if not self.config.prioritized:
            return False  # plain FIFO: drop-tail
        for lower in (CLASS_TELEMETRY, CLASS_MONITOR, CLASS_ENFORCING):
            if lower <= cls:
                break
            if self._queues[lower]:
                evicted_cls, __, __ = self._queues[lower].pop()
                self._drop(evicted_cls)
                return True
        return False

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
        self._update_shed()
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
    # Shed mode
    # ------------------------------------------------------------------
    def _update_shed(self) -> None:
        cfg = self.config
        if not cfg.shed:
            return
        depth = self.depth()
        if not self.shedding and depth >= cfg.high_watermark * cfg.capacity:
            self._set_shedding(True, depth)
        elif self.shedding and depth <= cfg.low_watermark * cfg.capacity:
            self._set_shedding(False, depth)

    def _set_shedding(self, active: bool, depth: int) -> None:
        self.shedding = active
        self.shed_transitions += 1
        self._c_shed.inc()
        self.sim.journal.record(
            "shed-on" if active else "shed-off",
            controller=self.name,
            depth=depth,
            dropped=sum(self.dropped),
        )
        if self.on_shed is not None:
            self.on_shed(active)

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
            "shedding": self.shedding,
            "shed_transitions": self.shed_transitions,
            "accepted": dict(zip(CLASS_NAMES, self.accepted)),
            "processed": dict(zip(CLASS_NAMES, self.processed)),
            "dropped": dict(zip(CLASS_NAMES, self.dropped)),
        }

    def __repr__(self) -> str:
        return (
            f"IngestQueue(depth={self.depth()}/{self.config.capacity}, "
            f"shedding={self.shedding}, dropped={sum(self.dropped)})"
        )
