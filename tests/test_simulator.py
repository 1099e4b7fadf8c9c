"""Unit tests for the discrete-event engine."""

import pytest

from repro.netsim.simulator import Simulator


def test_time_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_and_run_advances_time(sim):
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.5


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_simultaneous_events_fire_in_schedule_order(sim):
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_negative_delay_rejected(sim):
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_nan_delay_rejected(sim):
    """``delay < 0`` is False for NaN, and one NaN key breaks heap order
    silently; the check is ``not delay >= 0``."""
    with pytest.raises(ValueError):
        sim.schedule(float("nan"), lambda: None)
    assert sim.events_pending() == 0


def test_schedule_at_inherits_the_delay_check(sim):
    with pytest.raises(ValueError):
        sim.schedule_at(float("nan"), lambda: None)
    assert sim.events_pending() == 0


def test_schedule_at_absolute_time(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    fired = []
    sim.schedule_at(5.0, fired.append, "x")
    sim.run()
    assert sim.now == 5.0 and fired == ["x"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(1.0, fired.append, "no")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_stale_handle_is_inert(sim):
    """Cancelling through the handle of an event that already fired must
    not touch whatever was scheduled since (with a recycling pool the next
    ``schedule`` was handed the very same object)."""
    fired = []
    stale = sim.schedule(1.0, fired.append, "a")
    sim.run()
    sim.schedule(1.0, fired.append, "b")
    sim.cancel(stale)
    assert sim.events_pending() == 1
    sim.run()
    assert fired == ["a", "b"]
    assert sim.events_processed == 2 and sim.events_pending() == 0


def test_cancel_twice_and_after_popped_as_cancelled(sim):
    fired = []
    gone = sim.schedule(1.0, fired.append, "gone")
    sim.cancel(gone)
    sim.cancel(gone)
    assert sim.events_pending() == 0
    sim.run(until=2.0)  # pops the cancelled entry
    sim.schedule(1.0, fired.append, "kept")
    sim.cancel(gone)  # the handle of an entry the loop already dropped
    assert sim.events_pending() == 1
    sim.run()
    assert fired == ["kept"] and sim.events_processed == 1


def test_run_until_stops_at_boundary(sim):
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_event_at_exact_until_boundary_fires(sim):
    fired = []
    sim.schedule(2.0, fired.append, "edge")
    sim.run(until=2.0)
    assert fired == ["edge"]


def test_max_events_budget(sim):
    count = []

    def recurse():
        count.append(1)
        sim.schedule(0.1, recurse)

    sim.schedule(0.0, recurse)
    sim.run(max_events=25)
    assert len(count) == 25


def test_events_scheduled_during_execution_run(sim):
    order = []

    def outer():
        order.append("outer")
        sim.schedule(0.5, order.append, "inner")

    sim.schedule(1.0, outer)
    sim.run()
    assert order == ["outer", "inner"]
    assert sim.now == 1.5


def test_call_now_runs_after_current_event(sim):
    order = []

    def first():
        sim.call_now(order.append, "second")
        order.append("first")

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "second"]


def test_every_periodic_and_stop(sim):
    ticks = []
    stop = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    stop()
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_every_until_bound(sim):
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now), until=3.0)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]


def test_every_rejects_nonpositive_period(sim):
    with pytest.raises(ValueError):
        sim.every(0.0, lambda: None)


def test_every_rejects_nan_period(sim):
    with pytest.raises(ValueError):
        sim.every(float("nan"), lambda: None)
    assert sim.events_pending() == 0


def test_events_pending_and_processed(sim):
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.events_pending() == 2
    sim.run()
    assert sim.events_pending() == 0
    assert sim.events_processed == 2


def test_independent_simulators_do_not_interfere():
    a, b = Simulator(), Simulator()
    a.schedule(1.0, lambda: None)
    a.run()
    assert b.now == 0.0 and b.events_processed == 0


# ----------------------------------------------------------------------
# Time-semantics regressions (resilience PR)
# ----------------------------------------------------------------------
def test_schedule_at_clamps_float_drift(sim):
    """Rescheduling at a time computed from accumulated periods must not
    raise when float arithmetic lands an ulp before ``now``."""
    period = 0.1
    when = sum([period] * 10)  # 0.9999999999999999 < 1.0
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert when < sim.now  # the premise: accumulated float error
    fired = []
    sim.schedule_at(when, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 1.0  # clamped to "this instant", not time travel


def test_schedule_at_rejects_genuinely_past_times(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(4.0, lambda: None)


def test_every_does_not_accumulate_dead_events(sim):
    """A long-running periodic task keeps exactly one live event pending."""
    stop = sim.every(1.0, lambda: None)
    sim.run(until=500.0)
    assert sim.events_pending() <= 1
    assert len(sim._heap) <= 1
    stop()
    sim.run()
    assert sim.events_pending() == 0


def test_recurrences_of_one_period_share_one_heap_entry(sim):
    """A fleet reporting on one period is one heap entry, whatever its
    phases: only the earliest recurrence sits in the heap."""
    fired = []
    for index in range(1000):
        sim.schedule(index * 0.001, lambda index=index: sim.every(1.0, fired.append, index))
    sim.run(until=0.9995)
    for __ in range(3):
        assert sim.events_pending() == 1000
        assert len(sim._heap) == 1
        assert sim._heap[0][0] == next(sim.timeline())  # the earliest one
        sim.run(until=sim.now + 1.0)
    assert fired == [*range(1000)] * 3


@pytest.mark.parametrize("recurrences", [1, 3])
def test_a_lane_keeps_one_entry_object_across_ticks(sim, recurrences):
    """A tick re-keys and re-pushes the heap entry it was popped from --
    for the next head, or for the re-armed recurrence when it is alone --
    instead of building a new list each tick."""
    fired = []
    for index in range(recurrences):
        sim.every(1.0, fired.append, index)
    (entry,) = sim._heap
    for __ in range(4 * recurrences):
        sim.step()
        assert len(sim._heap) == 1 and sim._heap[0] is entry
        assert entry[0] == next(sim.timeline())  # keyed for the next tick
    assert fired == [*range(recurrences)] * 4


def test_run_until_advances_now_on_empty_heap(sim):
    sim.run(until=7.5)
    assert sim.now == 7.5
    # and the semantics are uniform: a second window continues from there
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_never_rewinds(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    sim.run(until=2.0)  # window entirely in the past: no-op
    assert sim.now == 5.0


def test_run_drains_cancelled_heads_on_early_return(sim):
    """Cancelled garbage past the ``until`` boundary must not linger."""
    events = [sim.schedule(10.0, lambda: None) for __ in range(50)]
    for event in events:
        sim.cancel(event)
    keeper = sim.schedule(20.0, lambda: None)
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert len(sim._heap) == 1  # only the live far-future event remains
    sim.cancel(keeper)
    sim.run()
    assert len(sim._heap) == 0
