"""The event core against a reference model, under random operations.

The model is the obvious scheduler behind the same methods: a list kept
sorted by ``(time, seq)``, one ``_fire_next`` primitive, and ``run`` written
as that primitive in a loop with the ``until`` / budget checks in front of
it.  Every operation is applied to a real :class:`Simulator` and to the
model, and after each one the two must agree on what fired (and in which
order), ``now``, ``events_processed``, ``events_pending()`` and
``timeline()``.  Because the model's ``run`` *is* ``step`` in a loop,
agreement pins that the inlined pop-first ``run`` equals ``step()`` called
repeatedly, including at the ``until`` and ``max_events`` boundaries where
it pushes the head back.

Cancels go through any handle ever returned -- live, fired, or already
cancelled -- so a stale handle that disturbed anything shows up as a
missing event or a wrong count.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.netsim.simulator import Simulator

# Few distinct values, so same-instant ties (the FIFO rule) are common.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
PERIODS = st.sampled_from([0.25, 0.5, 1.0])
INDEX = st.integers(min_value=0, max_value=10**6)


class Model:
    """Reference scheduler.  ``queue`` holds ``[time, seq, fn, args]``
    sorted; a cancelled entry has ``fn`` ``None`` and stays queued until it
    surfaces, as the real heap's does."""

    def __init__(self) -> None:
        self.now = 0.0
        self.seq = 0
        self.events_processed = 0
        self.queue: list[list] = []

    def schedule(self, delay, fn, *args) -> list:
        entry = [self.now + delay, self.seq, fn, args]
        self.seq += 1
        self.queue.append(entry)
        self.queue.sort(key=lambda e: (e[0], e[1]))
        return entry

    def cancel(self, entry: list) -> None:
        entry[2] = None

    def every(self, period, fn, *args, until=None):
        return ModelPeriodic(self, period, fn, args, until).stop

    def events_pending(self) -> int:
        return len(self.timeline())

    def timeline(self) -> list[float]:
        return [entry[0] for entry in self.queue if entry[2] is not None]

    def _next_live(self) -> list | None:
        while self.queue and self.queue[0][2] is None:
            self.queue.pop(0)
        return self.queue[0] if self.queue else None

    def _fire_next(self) -> None:
        time, __, fn, args = self.queue.pop(0)
        self.now = time
        fn(*args)
        self.events_processed += 1

    def step(self) -> bool:
        if self._next_live() is None:
            return False
        self._fire_next()
        return True

    def run(self, until=None, max_events=None) -> None:
        executed = 0
        while (head := self._next_live()) is not None:
            if until is not None and head[0] > until:
                break
            if executed == max_events:
                return  # budget: ``now`` stays at the last fired event
            self._fire_next()
            executed += 1
        if until is not None and until > self.now:
            self.now = until


class ModelPeriodic:
    """``Simulator.every`` in the model, including the one odd corner the
    event counts in ``tests/fixtures`` rest on: a recurrence stopped from
    inside its own tick has not re-armed yet, so it still does, and that
    last entry fires as a counted no-op."""

    def __init__(self, model: Model, period, fn, args, until) -> None:
        self.model, self.period, self.fn, self.args, self.until = model, period, fn, args, until
        self.stopped = False
        self.entry: list | None = model.schedule(period, self)

    def __call__(self) -> None:
        if self.stopped:
            return
        self.fn(*self.args)
        if self.until is None or self.model.now + self.period <= self.until:
            self.entry = self.model.schedule(self.period, self)
        else:
            self.entry = None

    def stop(self) -> None:
        self.stopped = True
        if self.entry is not None:
            self.entry[2] = None
            self.entry = None


class Side:
    """One scheduler (real or model) with what the callbacks record on it.
    Both sides fire in the same order, so ``handles`` and ``stops`` line up
    index by index."""

    def __init__(self, sched) -> None:
        self.sched = sched
        self.fired: list[str] = []
        self.handles: list[list] = []  # every handle ever returned
        self.stops: list = []

    def fire(self, label: str, child: float | None) -> None:
        self.fired.append(label)
        if child is not None:  # a callback that schedules from inside the loop
            self.handles.append(self.sched.schedule(child, self.fire, label + "'", None))

    def tick(self, label: str, index: int, ticks: list[int], stop_after: int | None) -> None:
        self.fired.append(label)
        ticks[0] += 1
        if ticks[0] == stop_after:
            self.stops[index]()  # a recurrence that stops itself mid-tick


class SimulatorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.real = Side(Simulator(observe=False))
        self.model = Side(Model())
        self.sides = (self.real, self.model)
        self.labels = 0
        self.endless: list[bool] = []  # per recurrence: would it outlive a bare run()?

    def _label(self) -> str:
        self.labels += 1
        return f"e{self.labels}"

    @rule(delay=DELAYS, child=st.none() | DELAYS)
    def schedule(self, delay, child):
        label = self._label()
        for side in self.sides:
            side.handles.append(side.sched.schedule(delay, side.fire, label, child))

    @precondition(lambda self: self.real.handles)
    @rule(index=INDEX)
    def cancel(self, index):
        for side in self.sides:
            side.sched.cancel(side.handles[index % len(side.handles)])

    @rule(period=PERIODS, horizon=st.none() | DELAYS, stop_after=st.none() | st.integers(1, 3))
    def every(self, period, horizon, stop_after):
        label = self._label()
        until = None if horizon is None else self.real.sched.now + horizon
        for side in self.sides:
            index = len(side.stops)
            side.stops.append(
                side.sched.every(period, side.tick, label, index, [0], stop_after, until=until)
            )
        self.endless.append(horizon is None and stop_after is None)

    @precondition(lambda self: self.real.stops)
    @rule(index=INDEX)
    def stop(self, index):
        index %= len(self.endless)
        for side in self.sides:
            side.stops[index]()
        self.endless[index] = False

    @rule()
    def step(self):
        assert self.real.sched.step() == self.model.sched.step()

    @rule(window=DELAYS, budget=st.none() | st.integers(0, 6))
    def run_until(self, window, budget):
        until = self.real.sched.now + window
        for side in self.sides:
            side.sched.run(until=until, max_events=budget)

    @rule(budget=st.integers(0, 12))
    def run_budget(self, budget):
        for side in self.sides:
            side.sched.run(max_events=budget)

    @precondition(lambda self: not any(self.endless))
    @rule()
    def drain(self):
        for side in self.sides:
            side.sched.run()
        assert self.real.sched.events_pending() == 0

    @invariant()
    def agrees_with_the_model(self):
        sim, model = self.real.sched, self.model.sched
        assert self.real.fired == self.model.fired
        assert sim.now == model.now
        assert sim.events_processed == model.events_processed
        assert sim.events_pending() == model.events_pending()
        assert list(sim.timeline()) == model.timeline()


TestSimulatorAgainstModel = SimulatorMachine.TestCase
TestSimulatorAgainstModel.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
