"""Unit tests for the SLO checkers (:mod:`repro.obs.slo`) on a health plane.

Covers the declaration contract, the multiwindow burn-rate math (fast
AND slow must both exceed their thresholds to breach; recovery needs
only the fast window to cool), the journaled breach->recover chains
with their shared trace id, and the null-instrument guarantee under
``observe=False``.  Every SLO reads registry instruments: a ``good`` /
``bad`` counter pair, or a gauge against a threshold.
"""

import pytest

from repro.netsim.simulator import Simulator
from repro.obs.health import HealthPlane
from repro.obs.slo import DEFAULT_PERIOD, SLO, Reading


def make_slo(**over):
    base = dict(
        name="reaction-latency",
        subsystem="pipeline",
        objective="95% of reactions within 2s",
        target=0.95,
        fast_window=10.0,
        slow_window=60.0,
        fast_burn=4.0,
        slow_burn=1.0,
        reading=Reading("good", bad="bad"),
    )
    base.update(over)
    return SLO(**base)


def observed(**gauges):
    """An observed simulator with the ``good``/``bad`` counters and the
    named callback gauges registered."""
    sim = Simulator()
    sim.metrics.counter("good")
    sim.metrics.counter("bad")
    for name, fn in gauges.items():
        sim.metrics.gauge(name, fn=fn)
    return sim


def tracked(slo, **gauges):
    """A tracker for ``slo`` on a fresh observed simulator, and a setter
    for its cumulative counter pair."""
    sim = observed(**gauges)
    monitor = HealthPlane(sim, period=1.0)
    tracker = monitor.add(slo)

    def feed(good, bad):
        sim.metrics.find("good").value = good
        sim.metrics.find("bad").value = bad

    return sim, monitor, tracker, feed


class TestDeclaration:
    @pytest.mark.parametrize(
        "over",
        [
            {"target": 0.0},
            {"target": 1.0},
            {"target": -0.5},
            {"fast_window": 0.0},
            {"slow_window": -1.0},
            {"fast_window": 120.0},  # fast > slow
            {"severity": "meltdown"},
            # Readings are built inside the test: a bad one raises on construction.
            pytest.param(lambda: {"reading": Reading("good")}, id="over7"),  # no form
            pytest.param(lambda: {"reading": Reading("good", bad="bad", limit=1.0)}, id="over8"),
        ],
    )
    def test_invalid_declarations_rejected(self, over):
        with pytest.raises(ValueError):
            make_slo(**(over() if callable(over) else over))

    def test_budget_is_one_minus_target(self):
        assert make_slo(target=0.95).budget == pytest.approx(0.05)
        assert make_slo(target=0.5).budget == pytest.approx(0.5)


class TestBurnMath:
    def test_burn_is_error_fraction_over_budget(self):
        # target 0.9 -> budget 0.1; an observed 10% error rate burns at
        # exactly 1.0 (consuming the budget), 20% burns at 2.0.
        __, __, t, feed = tracked(make_slo(target=0.9))
        t.evaluate(0.0)
        feed(90, 10)
        t.evaluate(1.0)
        assert t.burn_fast() == pytest.approx(1.0)
        feed(160, 40)
        t.evaluate(2.0)
        assert t.burn_fast() == pytest.approx(2.0)

    def test_fast_window_forgets_but_slow_window_remembers(self):
        # All the errors land early; once the fast window slides past
        # them its burn drops to zero while the slow window still sees
        # the full delta.
        __, __, t, feed = tracked(make_slo(target=0.9, fast_window=5.0, slow_window=100.0))
        t.evaluate(0.0)
        feed(50, 50)
        t.evaluate(1.0)
        assert t.burn_fast() > 0
        for at in range(2, 12):
            feed(50 + 10 * (at - 1), 50)  # clean traffic from here on
            t.evaluate(float(at))
        assert t.burn_fast() == pytest.approx(0.0)
        assert t.burn_slow() > 0

    def test_counter_reset_clamped_to_zero(self):
        # A series that restarts from zero must read as no events: the
        # negative delta clamps, not explodes.
        __, __, t, feed = tracked(make_slo(target=0.9))
        feed(1000, 100)
        t.evaluate(0.0)
        feed(5, 0)
        t.evaluate(1.0)
        assert t.burn_fast() == 0.0
        assert t.state == "ok"

    def test_check_style_counts_ticks_and_records_last_ok(self):
        flags = iter([1, 1, 1, 0, 0])
        __, __, t, __ = tracked(
            make_slo(target=0.5, reading=Reading("up", floor=1)), up=lambda: next(flags)
        )
        for at in range(5):
            t.evaluate(float(at))
        # Deltas past the baseline sample: 2 good + 2 bad ticks -> 50%
        # errors; budget 0.5 -> burn 1.0.
        assert t.burn_fast() == pytest.approx(1.0)
        assert t.last_ok is False

    def test_burn_gauges_track_the_trackers(self):
        sim, __, t, feed = tracked(make_slo(target=0.9))
        t.evaluate(0.0)
        feed(80, 20)
        t.evaluate(1.0)
        fast = sim.metrics.value(
            "slo_burn_rate", slo="reaction-latency", window="fast"
        )
        slow = sim.metrics.value(
            "slo_burn_rate", slo="reaction-latency", window="slow"
        )
        assert fast == pytest.approx(t.burn_fast())
        assert slow == pytest.approx(t.burn_slow())
        assert sim.metrics.value("slo_breached", slo="reaction-latency") == 0

    def test_split_histogram_counts_the_bound_as_good(self):
        sim = observed()
        latency = sim.metrics.histogram("latency")
        tracker = HealthPlane(sim).add(make_slo(reading=Reading("latency", split=2.0)))
        for value in (0.5, 2.0, 2.0000001, 30.0, 90.0):
            latency.observe(value)
        assert tracker.signal.counts() == (2, 3)


class TestBreachStateMachine:
    def test_fast_alone_does_not_breach(self):
        # Multiwindow AND: a short error burst trips the fast window but
        # not the slow one, so no breach fires (blip suppression).
        __, __, t, feed = tracked(
            make_slo(target=0.5, fast_window=2.0, slow_window=200.0, fast_burn=1.0, slow_burn=1.0)
        )
        for at in range(100):  # long clean history fills the slow window
            feed(10 * (at + 1), 0)
            t.evaluate(float(at))
        feed(1000, 10)  # one all-bad sample: fast=2.0, slow ~0
        t.evaluate(100.0)
        assert t.burn_fast() >= 1.0
        assert t.burn_slow() < 1.0
        assert t.state == "ok" and t.breaches == 0

    def test_breach_and_recovery_are_journaled_with_one_trace(self):
        window = {"bad": False}
        sim = observed(reachable=lambda: 0 if window["bad"] else 1)
        monitor = HealthPlane(sim, period=1.0)
        tracker = monitor.add(
            make_slo(
                name="control-reachability",
                target=0.99,
                fast_window=5.0,
                slow_window=30.0,
                fast_burn=10.0,
                slow_burn=2.0,
                reading=Reading("reachable", floor=1),
            )
        )
        monitor.start()
        sim.schedule_at(10.0, lambda: window.update(bad=True))
        sim.schedule_at(20.0, lambda: window.update(bad=False))
        sim.run(until=60.0)

        assert tracker.breaches == 1 and tracker.recoveries == 1
        assert tracker.state == "ok" and tracker.breached_at is None
        breach = sim.journal.entries(kind="slo-breach")
        recover = sim.journal.entries(kind="slo-recover")
        assert len(breach) == len(recover) == 1
        assert 10.0 <= breach[0].at <= 20.0 < recover[0].at
        assert breach[0].trace_id is not None
        assert breach[0].trace_id == recover[0].trace_id
        assert breach[0].fields["subsystem"] == "pipeline"
        assert breach[0].fields["burn_fast"] >= 10.0
        assert recover[0].fields["breach_s"] == pytest.approx(
            recover[0].at - breach[0].at
        )
        stages = [s.stage for s in sim.tracer.spans(breach[0].trace_id)]
        assert stages == ["slo-breach", "slo-recover"]
        assert sim.metrics.value(
            "slo_breaches", slo="control-reachability"
        ) == 1

    def test_status_reports_burns_state_and_value(self):
        age = {"s": 3.25}
        __, __, t, __ = tracked(
            make_slo(target=0.5, reading=Reading("age", limit=5.0), unit="s"),
            age=lambda: age["s"],
        )
        for at, seconds in enumerate((3.25, 9.0, 3.25)):
            age["s"] = seconds
            t.evaluate(float(at))
        status = t.status()
        assert status["state"] == "ok"
        # One good and one bad tick past the baseline over a 0.5 budget.
        assert status["burn_fast"] == pytest.approx(1.0)
        assert status["value"] == 3.25 and status["unit"] == "s"
        assert status["breaches"] == 0 and status["recoveries"] == 0


class TestMonitor:
    def test_default_period_matches_catalog_minimum_fast_window(self):
        assert DEFAULT_PERIOD == 5.0
        assert HealthPlane(Simulator()).period == DEFAULT_PERIOD

    def test_duplicate_names_rejected(self):
        __, monitor, __, __ = tracked(make_slo())
        with pytest.raises(ValueError, match="duplicate"):
            monitor.add(make_slo())

    def test_tick_evaluates_every_tracker(self):
        sim = observed()
        monitor = HealthPlane(sim, period=2.0)
        a = monitor.add(make_slo(name="a"))
        b = monitor.add(make_slo(name="b", subsystem="streams"))
        monitor.start()
        sim.run(until=10.0)
        assert monitor.ticks == 5
        assert len(a._fast_samples) == len(b._fast_samples) == 5
        assert [sample[0] for sample in a._fast_samples] == [2.0, 4.0, 6.0, 8.0, 10.0]
        monitor.stop()
        sim.run(until=20.0)
        assert monitor.ticks == 5

    def test_disabled_monitor_is_inert(self):
        sim = Simulator(observe=False)
        monitor = HealthPlane(sim)
        assert monitor.enabled is False
        assert monitor.add(make_slo()) is None
        monitor.start()
        sim.run(until=100.0)
        assert sim.events_processed == 0
        assert monitor.snapshot() == {"enabled": False}
        assert monitor.breach_total() == 0 and monitor.trackers == []

    def test_snapshot_shape(self):
        sim, monitor, __, __ = tracked(make_slo())
        snap = monitor.snapshot()
        assert snap["enabled"] is True
        assert snap["slo_breaches"] == snap["slo_recoveries"] == 0
        assert snap["subsystems"] == {"pipeline": {"state": "ok", "reasons": []}}
        assert [s["name"] for s in snap["slos"]] == ["reaction-latency"]
