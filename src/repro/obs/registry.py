"""The metrics registry: counters, gauges, fixed-bucket histograms.

Design constraints (see docs/architecture.md, "Observability"):

- **No wall-clock calls.**  Instruments record what callers hand them;
  anything time-like is simulated seconds.
- **Near-zero hot-path cost.**  A counter increment is one attribute add.
  Gauges are usually *callbacks* over counters a component already keeps,
  so they cost nothing until ``snapshot()`` runs.  Histograms bisect a
  small fixed bounds tuple and are only observed at control-plane
  frequency (rounds, deployments, epochs) -- never per packet.
- **Stable identity.**  A series is ``(name, sorted labels)``.
  ``counter()`` / ``gauge()`` / ``histogram()`` get-or-create, so
  components can resolve their instruments once at construction and reuse
  the object.  :meth:`MetricsRegistry.unique` hands out collision-free
  label values for same-named instances (two sites, both with an ``edge``
  switch, sharing one simulator).
- **Disableable.**  A disabled registry hands out shared no-op
  instruments, which is how the overhead bench measures instrumentation
  cost (``Simulator(observe=False)``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable

#: Default bounds for simulated-latency histograms (seconds).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
    0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0,
)

#: Default bounds for size/count histograms (batch sizes, rules per epoch).
COUNT_BUCKETS: tuple[float, ...] = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)

LabelMap = dict[str, str]


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelMap) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value: either set explicitly or read via callback.

    Callback gauges (``fn=...``) are the preferred integration: they
    evaluate only when sampled, so instrumenting a component's existing
    counters adds zero hot-path work.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "fn")

    def __init__(
        self, name: str, labels: LabelMap, fn: Callable[[], float] | None = None
    ) -> None:
        self.name = name
        self.labels = labels
        self._value: float = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        if self.fn is not None:
            return self.fn()
        return self._value


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max.

    ``bounds`` are the *upper* edges; an implicit ``+Inf`` bucket catches
    the rest.  Bucket counts are stored non-cumulatively; exporters
    cumulate for Prometheus exposition.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, name: str, labels: LabelMap, bounds: tuple[float, ...]) -> None:
        if tuple(sorted(bounds)) != tuple(bounds):
            raise ValueError(f"histogram bounds must be sorted (got {bounds})")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution quantile estimate (upper edge of the bucket
        holding the q-th observation; exact min/max at the extremes)."""
        if not self.count:
            return None
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        rank = q * self.count
        seen = 0.0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= rank:
                if i < len(self.bounds):
                    return min(self.bounds[i], self.max if self.max is not None else self.bounds[i])
                return self.max
        return self.max


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Keyed store of instruments; one per :class:`Simulator`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._unique_names: dict[tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def unique(self, prefix: str, namespace: str = "") -> str:
        """A collision-free label value for same-named instances.

        The first caller keeps the clean name (``"edge"``); later callers
        get ``"edge#2"``, ``"edge#3"`` -- which keeps single-site metrics
        readable while multi-site (shared simulator) fleets stay distinct.
        Each ``namespace`` counts apart: a component passes its label key
        (``"controller"``, ``"dlq"``, ...), so a component of another kind
        with the same name (the dead-letter queue, stream consumer and
        updater serving ``"controller"``) does not take its clean name.
        """
        key = (namespace, prefix)
        n = self._unique_names.get(key, 0) + 1
        self._unique_names[key] = n
        return prefix if n == 1 else f"{prefix}#{n}"

    # ------------------------------------------------------------------
    def _key(self, name: str, labels: LabelMap) -> tuple[str, tuple[tuple[str, str], ...]]:
        return (name, tuple(sorted(labels.items())))

    def _get_or_create(self, name: str, labels: LabelMap, factory: Callable[[], Any]) -> Any:
        key = self._key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        return self._get_or_create(name, labels, lambda: Counter(name, labels))

    def gauge(self, name: str, fn: Callable[[], float] | None = None, **labels: str) -> Gauge:
        if not self.enabled:
            return _NULL_GAUGE  # type: ignore[return-value]
        return self._get_or_create(name, labels, lambda: Gauge(name, labels, fn))

    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS, **labels: str
    ) -> Histogram:
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        return self._get_or_create(name, labels, lambda: Histogram(name, labels, bounds))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def series(self, name: str) -> list[Any]:
        """Every instrument registered under ``name`` (any labels)."""
        return [inst for (n, __), inst in self._instruments.items() if n == name]

    def value(self, name: str, **labels: str) -> float | None:
        """The value of one series, or None when it was never registered."""
        instrument = self._instruments.get(self._key(name, labels))
        if instrument is None:
            return None
        return instrument.value

    def find(self, name: str, **labels: str) -> Any:
        """The instrument of one series; KeyError when it was never registered."""
        return self._instruments[self._key(name, labels)]

    def total(self, name: str, **labels: str) -> float:
        """The sum of every ``name`` series whose labels include ``labels``."""
        return sum(
            inst.value
            for (n, __), inst in self._instruments.items()
            if n == name and labels.items() <= inst.labels.items()
        )

    def __iter__(self):
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A plain-JSON dict of every series (see exporters for text)."""
        out: dict[str, Any] = {"enabled": self.enabled, "counters": {}, "gauges": {}, "histograms": {}}
        if not self.enabled:
            return out
        for instrument in self._instruments.values():
            if instrument.kind == "histogram":
                buckets = {
                    str(bound): n
                    for bound, n in zip(instrument.bounds, instrument.bucket_counts)
                }
                buckets["+Inf"] = instrument.bucket_counts[-1]
                entry = {
                    "labels": dict(instrument.labels),
                    "count": instrument.count,
                    "sum": instrument.total,
                    "min": instrument.min,
                    "max": instrument.max,
                    "p50": instrument.quantile(0.5),
                    "p99": instrument.quantile(0.99),
                    "buckets": buckets,
                }
            else:
                entry = {"labels": dict(instrument.labels), "value": instrument.value}
            out[instrument.kind + "s"].setdefault(instrument.name, []).append(entry)
        return out
