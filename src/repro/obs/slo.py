"""Checkers: security SLOs, health probes and run invariants.

Each is a predicate over registry instruments.  A :class:`Reading` names
them and how to read them: a **counter pair** (``bad=``) of cumulative good
and bad events; a **histogram split** (``split=``), where observations at
or under the bound are good (``bisect_left`` files a value equal to a bound
in its bucket); or a **gauge** that is ok while at most ``limit`` (at least
``floor``).  A reading picks its series by the ``metric_labels`` of the
component at ``of``, a path from the checker's root (usually the site).
It is bound when its checker is registered and again when the root
rebuilds a component (a controller restart or takeover): counter pairs and
histograms then sum every incarnation's series, and a gauge reads the live
one.  Nothing is looked up by name on a tick.

An :class:`SLO` is evaluated on the health plane's tick with the SRE
multiwindow burn-rate recipe: the error budget is ``1 - target``, the
**burn rate** of a window is its error fraction over the budget, a
**breach** fires when the fast *and* the slow window burn past their
thresholds and **recovery** when the fast burn falls back under its own.  A
gauge reading makes each tick one good or bad event.  Breaches and
recoveries are journaled (``slo-breach`` / ``slo-recover``) under one trace
id.  A probe is evaluated on the same tick with no window, an invariant
once at the end of a run (both in :mod:`repro.obs.health`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.simulator import Simulator
    from repro.obs.registry import MetricsRegistry

__all__ = ["DEFAULT_PERIOD", "Reading", "SLO", "Signal", "SloTracker"]

#: Default evaluation cadence, one tick per catalog-minimum fast window;
#: harnesses that need tight detection pass a sub-second period.
DEFAULT_PERIOD = 5.0

#: Severity levels a breach may assign to its subsystem.
SEVERITY_DEGRADED = "degraded"
SEVERITY_CRITICAL = "critical"
_SEVERITIES = (SEVERITY_DEGRADED, SEVERITY_CRITICAL)


@dataclass(frozen=True)
class Reading:
    """Which registry instruments a checker reads, and how (module doc)."""

    metric: str
    bad: str = ""
    split: float | None = None
    limit: float | None = None
    floor: float | None = None
    #: Path from the root to the component whose ``metric_labels`` pick
    #: the series; "" reads ``labels`` alone.
    of: str = ""
    labels: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        forms = (bool(self.bad), self.split is not None, (self.limit, self.floor) != (None, None))
        if sum(forms) != 1:
            raise ValueError(f"reading {self.metric!r}: give one of bad=, split=, limit=/floor=")

    def labels_in(self, root: Any) -> dict[str, str] | None:
        """The series' labels under ``root``; None when the component is absent."""
        component = root
        for name in self.of.split(".") if self.of else ():
            component = getattr(component, name, None)
            if component is None:
                return None
        return {**getattr(component, "metric_labels", {}), **dict(self.labels)}


class Signal:
    """A :class:`Reading` bound to its instruments.  Each instrument is
    read by one zero-argument call, a callback gauge's own function when
    it has one."""

    __slots__ = ("reading", "counted", "low", "high", "read", "counts", "_bound", "_pairs", "_cut")

    def __init__(self, reading: Reading) -> None:
        self.reading = reading
        self.counted = reading.limit is None and reading.floor is None
        #: A gauge reading is ok while ``low <= read() <= high``.
        self.low = -math.inf if reading.floor is None else reading.floor
        self.high = math.inf if reading.limit is None else reading.limit
        self.read: Callable[[], float]
        #: Cumulative ``(good, bad)`` over every bound series.
        self.counts = self._pair_counts if reading.bad else self._split_counts
        #: The counted series bound so far (a histogram reading sums them).
        self._bound: list[Any] = []
        self._pairs: list[tuple[Callable[[], float], Callable[[], float]]] = []
        self._cut = 0

    def attach(self, registry: MetricsRegistry, root: Any) -> bool:
        """Bind the series under ``root`` (a counter pair or histogram joins
        the sum, a gauge replaces the one read); False when it is absent."""
        reading = self.reading
        labels = reading.labels_in(root)
        if labels is None:
            return False
        instrument = registry.find(reading.metric, **labels)
        if not self.counted:
            self.read = _reader(instrument)
        elif all(bound is not instrument for bound in self._bound):
            self._bound.append(instrument)
            if reading.bad:
                self._pairs.append((_reader(instrument), _reader(registry.find(reading.bad, **labels))))
            else:
                self._cut = instrument.bounds.index(reading.split) + 1
        return True

    def _pair_counts(self) -> tuple[float, float]:
        pairs = self._pairs
        if len(pairs) == 1:  # one incarnation: the common case, kept cheap
            read_good, read_bad = pairs[0]
            return read_good(), read_bad()
        good = bad = 0
        for read_good, read_bad in pairs:
            good += read_good()
            bad += read_bad()
        return good, bad

    def _split_counts(self) -> tuple[float, float]:
        total = bad = 0
        cut = self._cut
        for histogram in self._bound:
            total += histogram.count
            bad += sum(histogram.bucket_counts[cut:])
        return total - bad, bad

    def ok(self) -> bool:
        return self.low <= self.read() <= self.high


def _reader(instrument: Any) -> Callable[[], float]:
    fn = getattr(instrument, "fn", None)
    return fn if fn is not None else partial(getattr, instrument, "value")


@dataclass(frozen=True)
class SLO:
    """One declared security objective over one :class:`Reading`."""

    name: str
    subsystem: str
    objective: str
    reading: Reading
    target: float
    fast_window: float
    slow_window: float
    fast_burn: float
    slow_burn: float
    severity: str = SEVERITY_DEGRADED
    #: Report a gauge reading's value with the status, in this unit
    #: (None: no value).
    unit: str | None = None
    #: ``(state, reason)`` the subsystem also takes while the latest gauge
    #: sample is bad, before any burn accrues.
    probe: tuple[str, str] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"SLO {self.name!r}: target must be in (0, 1), got {self.target}")
        if not 0 < self.fast_window <= self.slow_window:
            raise ValueError(f"SLO {self.name!r}: need 0 < fast_window <= slow_window")
        if self.severity not in _SEVERITIES:
            raise ValueError(f"SLO {self.name!r}: severity must be one of {_SEVERITIES}")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


class SloTracker:
    """Sliding-window burn-rate evaluation + breach state machine for one SLO,
    whose series carry ``labels``."""

    __slots__ = (
        "slo",
        "sim",
        "signal",
        "_fast_samples",
        "_slow_samples",
        "_fast_window",
        "_slow_window",
        "_fast_burn",
        "_inv_budget",
        "_check_good",
        "_check_bad",
        "last_ok",
        "state",
        "breaches",
        "recoveries",
        "breached_at",
        "last_trace",
        "_c_breaches",
    )

    def __init__(self, slo: SLO, sim: Simulator, signal: Signal, labels: dict[str, str]) -> None:
        self.slo = slo
        self.sim = sim
        self.signal = signal
        # Cumulative (t, good, bad) samples, one deque per window, each
        # pruned to its width plus one baseline sample at-or-before the
        # left edge: amortized O(1) per tick.
        self._fast_samples: deque[tuple[float, float, float]] = deque()
        self._slow_samples: deque[tuple[float, float, float]] = deque()
        self._fast_window = slo.fast_window
        self._slow_window = slo.slow_window
        self._fast_burn = slo.fast_burn
        self._inv_budget = 1.0 / slo.budget
        self._check_good = 0
        self._check_bad = 0
        #: The latest gauge sample's outcome (True for counted readings),
        #: which the SLO's probe reads instead of sampling again.
        self.last_ok = True
        self.state = "ok"
        self.breaches = 0
        self.recoveries = 0
        self.breached_at: float | None = None
        self.last_trace: int | None = None
        metrics = sim.metrics
        self._c_breaches = metrics.counter("slo_breaches", **labels)
        metrics.gauge("slo_burn_rate", fn=self.burn_fast, window="fast", **labels)
        metrics.gauge("slo_burn_rate", fn=self.burn_slow, window="slow", **labels)
        metrics.gauge("slo_breached", fn=lambda: 1 if self.state == "breach" else 0, **labels)

    def ok(self) -> bool:
        return self.last_ok

    def burn_fast(self) -> float:
        return self._burn_over(self._fast_samples)

    def burn_slow(self) -> float:
        return self._burn_over(self._slow_samples)

    def _burn_over(self, samples: deque[tuple[float, float, float]]) -> float:
        """Burn rate between a window's baseline sample and its newest;
        a negative delta (a series restarted from zero) reads as none."""
        if len(samples) < 2:
            return 0.0
        (__, g0, b0), (__, g1, b1) = samples[0], samples[-1]
        good, bad = max(g1 - g0, 0.0), max(b1 - b0, 0.0)
        total = good + bad
        return (bad / total) * self._inv_budget if total > 0.0 else 0.0

    def evaluate(self, now: float) -> None:
        """Take one sample and run the breach/recovery state machine.

        The plane's hot path: window upkeep and the fast burn are inlined,
        and the slow burn is computed only once the fast one trips.
        """
        signal = self.signal
        if signal.counted:
            good, bad = signal.counts()
        else:
            ok = self.last_ok = signal.low <= signal.read() <= signal.high
            if ok:
                self._check_good += 1
            else:
                self._check_bad += 1
            good, bad = self._check_good, self._check_bad
        sample = (now, good, bad)
        fast_samples = self._fast_samples
        fast_samples.append(sample)
        edge = now - self._fast_window
        while len(fast_samples) >= 2 and fast_samples[1][0] <= edge:
            fast_samples.popleft()
        slow_samples = self._slow_samples
        slow_samples.append(sample)
        edge = now - self._slow_window
        while len(slow_samples) >= 2 and slow_samples[1][0] <= edge:
            slow_samples.popleft()

        baseline = fast_samples[0]
        g = sample[1] - baseline[1]
        b = sample[2] - baseline[2]
        if g < 0.0:
            g = 0.0
        if b < 0.0:
            b = 0.0
        total = g + b
        fast = (b / total) * self._inv_budget if total > 0.0 else 0.0

        if self.state == "ok":
            if fast >= self._fast_burn:
                slow = self._burn_over(slow_samples)
                if slow >= self.slo.slow_burn:
                    self._transition("slo-breach", now, fast, slow)
        elif fast < self._fast_burn:
            self._transition("slo-recover", now, fast, self._burn_over(slow_samples))

    def _display_value(self) -> float | None:
        return None if self.slo.unit is None else round(float(self.signal.read()), 6)

    def _transition(self, kind: str, now: float, fast: float, slow: float) -> None:
        slo, sim = self.slo, self.sim
        fields: dict[str, Any] = {
            "slo": slo.name,
            "subsystem": slo.subsystem,
            "severity": slo.severity,
            "burn_fast": round(fast, 3),
            "burn_slow": round(slow, 3),
        }
        if kind == "slo-breach":
            self.state = "breach"
            self.breaches += 1
            self.breached_at = now
            self._c_breaches.inc()
            self.last_trace = sim.tracer.start_trace()
            value = self._display_value()
            if value is not None:
                fields["value"] = value
        else:
            self.state = "ok"
            self.recoveries += 1
            if self.breached_at is not None:
                fields["breach_s"] = round(now - self.breached_at, 6)
            self.breached_at = None
        sim.journal.record(kind, device="", trace=self.last_trace, **fields)

    def status(self) -> dict[str, Any]:
        slo = self.slo
        out: dict[str, Any] = {
            "name": slo.name,
            "subsystem": slo.subsystem,
            "objective": slo.objective,
            "severity": slo.severity,
            "target": slo.target,
            "state": self.state,
            "burn_fast": round(self.burn_fast(), 3),
            "burn_slow": round(self.burn_slow(), 3),
            "fast_window_s": slo.fast_window,
            "slow_window_s": slo.slow_window,
            "fast_burn": slo.fast_burn,
            "slow_burn": slo.slow_burn,
            "breaches": self.breaches,
            "recoveries": self.recoveries,
        }
        value = self._display_value()
        if value is not None:
            out["value"] = value
            if slo.unit:
                out["unit"] = slo.unit
        return out
