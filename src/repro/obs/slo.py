"""Security SLOs with SRE-style multiwindow burn-rate alerting.

The observability layers built so far (metrics registry, causal traces,
audit journal, durable streams) produce *raw* signal; nothing interprets
it online.  This module declares security service-level objectives — "95%
of enforcement reactions land within 2 s", "the controller is reachable
99% of the time" — and evaluates them continuously against the live registry
and component state, using the standard SRE multiwindow, multi-burn-rate
recipe:

* each SLO has a **target** good fraction; the *error budget* is
  ``1 - target``;
* the **burn rate** over a window is the observed error fraction divided
  by the budget (burn 1.0 == exactly consuming the budget);
* a **breach** fires when the burn over the *fast* window AND the burn
  over the *slow* window both exceed their thresholds (the fast window
  gives quick detection, the slow window suppresses blips);
* **recovery** fires when the fast-window burn drops back under its
  threshold.

Two signal styles are supported:

* ``signal`` — a callable returning cumulative, monotonically
  non-decreasing ``(good, bad)`` event counts (e.g. reactions within
  budget vs late).  Window deltas are taken between samples.
* ``check`` — a callable returning a boolean "currently ok" (e.g. "the
  controller is reachable").  Each evaluation tick contributes one
  good/bad unit, turning the SLO into a fraction-of-time objective.

Breaches and recoveries are journaled (``slo-breach`` / ``slo-recover``)
and carry a trace id so incident reconstruction can stitch the breach
window into device timelines.  Everything here is pull-based: when
metrics are disabled (``observe=False``) the monitor registers nothing
and schedules nothing, preserving the null-instrument guarantee.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netsim.simulator import Simulator

__all__ = ["DEFAULT_PERIOD", "SLO", "SloTracker", "SloMonitor"]

#: Default evaluation cadence: one sample per catalog-minimum fast
#: window (5 s), which keeps the always-on plane inside the obs-overhead
#: budget on a long-lived deployment.  Harnesses that need tight
#: detection latency (the chaos/failover scenarios, the `repro health`
#: CLI) pass an explicit sub-second period instead.
DEFAULT_PERIOD = 5.0

#: Severity levels a breach may assign to its subsystem.
SEVERITY_DEGRADED = "degraded"
SEVERITY_CRITICAL = "critical"
_SEVERITIES = (SEVERITY_DEGRADED, SEVERITY_CRITICAL)


@dataclass
class SLO:
    """One declared security objective.

    Exactly one of ``signal`` (cumulative ``(good, bad)`` counts) or
    ``check`` (boolean "ok right now") must be provided.
    """

    name: str
    subsystem: str
    objective: str
    target: float
    fast_window: float
    slow_window: float
    fast_burn: float
    slow_burn: float
    severity: str = SEVERITY_DEGRADED
    unit: str = ""
    device: str = ""
    signal: Callable[[], tuple[float, float]] | None = None
    check: Callable[[], bool] | None = None
    value: Callable[[], float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"SLO {self.name!r}: target must be in (0, 1), got {self.target}")
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise ValueError(f"SLO {self.name!r}: windows must be positive")
        if self.fast_window > self.slow_window:
            raise ValueError(f"SLO {self.name!r}: fast_window must be <= slow_window")
        if self.severity not in _SEVERITIES:
            raise ValueError(f"SLO {self.name!r}: severity must be one of {_SEVERITIES}")
        if (self.signal is None) == (self.check is None):
            raise ValueError(f"SLO {self.name!r}: provide exactly one of signal= or check=")

    @property
    def budget(self) -> float:
        return 1.0 - self.target


class SloTracker:
    """Sliding-window burn-rate evaluation + breach state machine for one SLO."""

    __slots__ = (
        "slo",
        "sim",
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

    def __init__(self, slo: SLO, sim: Simulator) -> None:
        self.slo = slo
        self.sim = sim
        # Cumulative (t, good, bad) samples, one deque per window, each
        # pruned incrementally to its own width (plus one baseline sample
        # at-or-before the left edge) -- amortized O(1) per tick, which
        # is what keeps the plane inside the obs-overhead budget.
        self._fast_samples: deque[tuple[float, float, float]] = deque()
        self._slow_samples: deque[tuple[float, float, float]] = deque()
        # Hot-path locals: the per-tick state machine reads these instead
        # of chasing the SLO dataclass's attributes.
        self._fast_window = slo.fast_window
        self._slow_window = slo.slow_window
        self._fast_burn = slo.fast_burn
        self._inv_budget = 1.0 / slo.budget
        self._check_good = 0
        self._check_bad = 0
        #: Outcome of the most recent check() sample (always True for
        #: signal-style SLOs).  Probes read this instead of re-running
        #: the same predicate a second time in the same tick.
        self.last_ok = True
        self.state = "ok"
        self.breaches = 0
        self.recoveries = 0
        self.breached_at: float | None = None
        self.last_trace: int | None = None
        metrics = sim.metrics
        labels = {"slo": slo.name}
        self._c_breaches = metrics.counter("slo_breaches", **labels)
        metrics.gauge("slo_burn_rate", fn=self.burn_fast, window="fast", **labels)
        metrics.gauge("slo_burn_rate", fn=self.burn_slow, window="slow", **labels)
        metrics.gauge("slo_breached", fn=lambda: 1 if self.state == "breach" else 0, **labels)

    # ------------------------------------------------------------------
    def burn_fast(self) -> float:
        """Fast-window burn rate as of the latest evaluation tick."""
        return self._burn_over(self._fast_samples)

    def burn_slow(self) -> float:
        """Slow-window burn rate as of the latest evaluation tick."""
        return self._burn_over(self._slow_samples)

    # ------------------------------------------------------------------
    def _burn_over(self, samples: deque[tuple[float, float, float]]) -> float:
        """Burn rate between a window's baseline sample and its newest."""
        if len(samples) < 2:
            return 0.0
        baseline = samples[0]
        last = samples[-1]
        # Clamp deltas: sources that rebind after a failover may restart
        # their cumulative counters from zero.
        good = last[1] - baseline[1]
        bad = last[2] - baseline[2]
        if good < 0.0:
            good = 0.0
        if bad < 0.0:
            bad = 0.0
        total = good + bad
        if total <= 0.0:
            return 0.0
        return (bad / total) * self._inv_budget

    # ------------------------------------------------------------------
    def evaluate(self, now: float) -> None:
        """Take one sample and run the breach/recovery state machine.

        This is the plane's hot path (one call per tracked SLO per
        evaluation tick); the window maintenance and burn math are
        inlined and amortized O(1) so a tick costs no more than an
        ordinary simulator event.
        """
        slo = self.slo
        signal = slo.signal
        if signal is not None:
            good, bad = signal()
        else:
            ok = self.last_ok = slo.check()
            if ok:
                self._check_good += 1
            else:
                self._check_bad += 1
            good, bad = self._check_good, self._check_bad
        sample = (now, float(good), float(bad))
        # Prune each deque to its window, keeping one baseline sample
        # at-or-before the left edge (the head after pruning *is* the
        # latest sample <= edge, or the oldest when the run is younger
        # than the window).
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

        # Fast-window burn, inlined (the just-appended sample is the
        # window's newest point; the head is its baseline).  The slow
        # burn is only needed once the fast threshold trips, or while in
        # breach -- snapshots recompute both lazily from the deques.
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
                if slow >= slo.slow_burn:
                    self._breach(now, fast, slow)
        elif fast < self._fast_burn:
            self._recover(now, fast, self._burn_over(slow_samples))

    def _display_value(self) -> float | None:
        if self.slo.value is None:
            return None
        return round(float(self.slo.value()), 6)

    def _breach(self, now: float, fast: float, slow: float) -> None:
        slo = self.slo
        self.state = "breach"
        self.breaches += 1
        self.breached_at = now
        self._c_breaches.inc()
        sim = self.sim
        trace = sim.tracer.start_trace()
        self.last_trace = trace
        fields: dict[str, Any] = {
            "slo": slo.name,
            "subsystem": slo.subsystem,
            "severity": slo.severity,
            "burn_fast": round(fast, 3),
            "burn_slow": round(slow, 3),
        }
        value = self._display_value()
        if value is not None:
            fields["value"] = value
        sim.journal.record("slo-breach", device=slo.device, trace=trace, **fields)

    def _recover(self, now: float, fast: float, slow: float) -> None:
        slo = self.slo
        self.state = "ok"
        self.recoveries += 1
        breached_at = self.breached_at
        self.breached_at = None
        sim = self.sim
        trace = self.last_trace
        fields: dict[str, Any] = {
            "slo": slo.name,
            "subsystem": slo.subsystem,
            "severity": slo.severity,
            "burn_fast": round(fast, 3),
            "burn_slow": round(slow, 3),
        }
        if breached_at is not None:
            fields["breach_s"] = round(now - breached_at, 6)
        sim.journal.record("slo-recover", device=slo.device, trace=trace, **fields)

    # ------------------------------------------------------------------
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


class SloMonitor:
    """Periodically evaluates a catalog of :class:`SLO`\\ s.

    When the simulator was built with ``observe=False`` the monitor is
    inert: :meth:`add` and :meth:`start` are no-ops, no timer is
    scheduled, and the hot path pays nothing.
    """

    def __init__(self, sim: Simulator, period: float = DEFAULT_PERIOD) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive (got {period})")
        self.sim = sim
        self.period = period
        self.enabled = bool(sim.metrics.enabled)
        self.trackers: list[SloTracker] = []
        self.ticks = 0
        #: Optional hook invoked (with sim.now) after each evaluation
        #: round — the health monitor hangs its rollup off this.
        self.on_tick: Callable[[float], None] | None = None
        self._stop: Callable[[], None] | None = None

    def add(self, slo: SLO) -> SloTracker | None:
        """Register an SLO; returns its tracker (None when disabled)."""
        if not self.enabled:
            return None
        if any(t.slo.name == slo.name for t in self.trackers):
            raise ValueError(f"duplicate SLO name {slo.name!r}")
        tracker = SloTracker(slo, self.sim)
        self.trackers.append(tracker)
        return tracker

    def start(self) -> None:
        if not self.enabled or self._stop is not None:
            return
        self._stop = self.sim.every(self.period, self._tick)

    def stop(self) -> None:
        if self._stop is not None:
            self._stop()
            self._stop = None

    def _tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        for tracker in self.trackers:
            tracker.evaluate(now)
        if self.on_tick is not None:
            self.on_tick(now)

    # ------------------------------------------------------------------
    def breach_total(self) -> int:
        return sum(t.breaches for t in self.trackers)

    def recovery_total(self) -> int:
        return sum(t.recoveries for t in self.trackers)

    def breached(self) -> list[SloTracker]:
        return [t for t in self.trackers if t.state == "breach"]

    def snapshot(self) -> dict[str, Any]:
        if not self.enabled:
            return {"enabled": False}
        return {
            "enabled": True,
            "period_s": self.period,
            "ticks": self.ticks,
            "breaches": self.breach_total(),
            "recoveries": self.recovery_total(),
            "slos": [t.status() for t in self.trackers],
        }
