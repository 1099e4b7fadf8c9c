"""Discrete-event simulation engine.

All IoTSec components share one :class:`Simulator` instance.  Time is a
float in seconds and only advances when events fire; nothing in the library
reads the wall clock, which keeps every experiment deterministic and fast.

Events scheduled for the same instant fire in the order they were scheduled
(FIFO tie-breaking via a monotonically increasing sequence number), which
makes runs reproducible regardless of heap internals.

Hot-path notes (see docs/architecture.md, "Performance architecture"):

- A scheduled callback is one plain list, ``[time, seq, fn, args]``.  That
  list is the heap entry (lists order like tuples, and ``seq`` is unique,
  so ``fn`` is never compared) *and* the handle ``schedule`` returns.
  Cancelling is ``entry[2] = None`` behind :meth:`Simulator.cancel`; the
  loop skips such entries when they surface.  A handle whose event has
  fired is just a list nothing else refers to, so cancelling through it
  does nothing -- there is no pool and no handle is ever reused; a lane
  re-pushes its own entry (a lane entry is never a caller's handle).
- The data-plane-volume senders build and push their entry themselves --
  same ``now + delay``, same ``next(seq)`` -- which saves the call into
  :meth:`schedule` on every hop, timer tick and alert.  Each checks its
  delay where it is configured.  A change to the entry's layout must
  change every site that builds one, and these are all of them:

  - :meth:`Simulator.schedule` here;
  - :class:`_Lane` here (each push of a lane's head, and each re-key of
    the entry a tick pops);
  - :meth:`Link.transmit <repro.netsim.link.Link.transmit>`;
  - the fault-free unreliable branch of :meth:`ControlChannel.send
    <repro.sdn.channel.ControlChannel.send>`, the one site outside
    ``netsim``.

  Everything else calls :meth:`schedule`.
- :meth:`run` inlines the pop/skip/fire loop rather than calling
  :meth:`step` per event; both share the same observable semantics.  It
  pops first and pushes the head back only when ``until`` or the budget
  stops it.
- :meth:`every` puts a recurrence in the one :class:`_Lane` of its period.
  A recurrence re-arms at ``now + period`` with a fresh ``seq``, so the
  lane's FIFO of recurrences is always in ``(time, seq)`` order and only
  its head sits in the heap, as one entry carrying the head's own
  ``(time, seq)``: a fleet of devices reporting on one period costs one
  heap entry, not one each, and every other event sifts through a heap
  that much shallower.  Event order, counts, :meth:`events_pending` and
  :meth:`timeline` are those of one entry per recurrence.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from repro.obs import Journal, MetricsRegistry, Tracer

#: Sentinel horizon for ``run(until=None)``: every event time compares below.
_INF = float("inf")

#: A scheduled callback, ``[time, seq, fn, args]``: the heap entry and the
#: handle for :meth:`Simulator.cancel`.  A plain list, named for annotations.
Event = list


class _Recurrence:
    """One :meth:`Simulator.every` recurrence, queued in its period's lane.

    ``time`` and ``seq`` are the key of its next tick, drawn exactly as a
    heap entry's would be.  ``armed`` is True while it waits in the lane
    to fire; ``stopped`` once :meth:`stop` has been called.
    """

    __slots__ = ("lane", "fn", "args", "until", "time", "seq", "armed", "stopped")

    def __init__(
        self,
        lane: "_Lane",
        fn: Callable[..., None],
        args: tuple,
        until: float | None,
        time: float,
        seq: int,
    ) -> None:
        self.lane = lane
        self.fn = fn
        self.args = args
        self.until = until
        self.time = time
        self.seq = seq
        self.armed = True
        self.stopped = False

    def stop(self) -> None:
        """Stop the recurrence.  Queued, it is dropped and never fires.
        From inside its own tick, the tick still re-arms once and that
        last entry fires as a counted no-op (the event counts pinned in
        ``tests/fixtures`` rest on it)."""
        self.stopped = True
        if self.armed:
            self.armed = False
            self.lane.drop(self)


class _Lane:
    """Every recurrence of one period, in firing order, behind one heap entry.

    ``queue`` holds the recurrences in ``(time, seq)`` order: each one
    re-arms at ``now + period`` with a fresh ``seq``, and so does each
    newcomer, so appending keeps the order.  ``entry`` is the heap entry
    for the first armed recurrence, ``[time, seq, lane, ()]`` with that
    recurrence's own key, or None while the lane has no armed recurrence.
    A recurrence stopped from outside stays in ``queue`` disarmed until it
    reaches the front.

    Calling the lane is the tick: it takes the head off, pushes the next
    armed head (re-keying the entry it was popped from, not a new one),
    fires the taken one's ``fn`` itself -- one Python frame a tick, as one
    entry per recurrence cost -- and re-arms it at the tail.
    """

    __slots__ = ("sim", "period", "queue", "entry")

    def __init__(self, sim: "Simulator", period: float) -> None:
        self.sim = sim
        self.period = period
        self.queue: deque[_Recurrence] = deque()
        self.entry: Event | None = None

    def join(self, fn: Callable[..., None], args: tuple, until: float | None) -> _Recurrence:
        """Queue a new recurrence one period out.  Its first tick fires
        whatever ``until`` says; ``until`` bounds the re-arms."""
        sim = self.sim
        member = _Recurrence(self, fn, args, until, sim.now + self.period, next(sim._seq))
        self.queue.append(member)
        if self.entry is None:
            self._push_head()
        return member

    def drop(self, member: _Recurrence) -> None:
        """``member`` was just disarmed; if its key is the one in the heap,
        tombstone that entry and push the next armed head's."""
        entry = self.entry
        if entry is not None and self.queue[0] is member:
            entry[2] = None
            self.entry = None
            self._push_head()

    def _push_head(self) -> None:
        queue = self.queue
        while queue:
            head = queue[0]
            if head.armed:
                self.entry = entry = [head.time, head.seq, self, ()]
                heappush(self.sim._heap, entry)
                return
            queue.popleft()

    def __call__(self) -> None:
        # The loop popped ``entry``.  The next armed head goes into the heap
        # before the callback runs, so the callback (and a ``step()`` or
        # ``run()`` it nests, or a raise out of it) finds the heap as one
        # entry per recurrence would leave it.  ``_push_head`` is inlined:
        # a call would add a frame to every tick.  If no head was pushed the
        # queue is empty, so the re-armed recurrence is the head.
        # The popped entry is re-keyed and pushed again rather than a new
        # list built: ``spare`` holds it while it is out of the heap.
        queue = self.queue
        member = queue.popleft()
        member.armed = False
        spare = self.entry
        self.entry = None
        while queue:
            head = queue[0]
            if head.armed:
                spare[0] = head.time
                spare[1] = head.seq
                self.entry = spare
                heappush(self.sim._heap, spare)
                spare = None
                break
            queue.popleft()
        if member.stopped:
            return
        member.fn(*member.args)
        sim = self.sim
        when = sim.now + self.period
        until = member.until
        if until is None or when <= until:
            member.time = when
            member.seq = seq = next(sim._seq)
            member.armed = True
            queue.append(member)
            if self.entry is None:
                if spare is None:
                    spare = [when, seq, self, ()]
                else:
                    spare[0] = when
                    spare[1] = seq
                self.entry = spare
                heappush(sim._heap, spare)


class Simulator:
    """A deterministic discrete-event scheduler.

    Example
    -------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(1.5, fired.append, "hello")  # doctest: +ELLIPSIS
    [1.5, 0, ...]
    >>> sim.run()
    >>> fired, sim.now
    (['hello'], 1.5)
    """

    def __init__(self, observe: bool = True) -> None:
        self.now: float = 0.0
        self._heap: list[Event] = []
        self._seq = itertools.count()
        #: One :class:`_Lane` per distinct :meth:`every` period.
        self._lanes: dict[float, _Lane] = {}
        self._events_processed = 0
        self._executing = False
        #: Shared observability: every component of an experiment registers
        #: its instruments here (``observe=False`` swaps in no-op
        #: instruments, which is what the overhead bench compares against).
        self.metrics = MetricsRegistry(enabled=observe)
        self.tracer = Tracer(enabled=observe)
        #: The flight recorder (see :mod:`repro.obs.journal`): every layer
        #: appends structured audit entries through ``journal.record``.
        self.journal = Journal(clock=lambda: self.now, enabled=observe)
        self.metrics.gauge("sim_now", fn=lambda: self.now)
        self.metrics.gauge("sim_events_processed", fn=lambda: self._events_processed)
        self.metrics.gauge("sim_events_pending", fn=self.events_pending)
        self.metrics.gauge("journal_recorded", fn=lambda: self.journal.recorded)
        self.metrics.gauge("journal_retained", fn=lambda: len(self.journal))
        self.metrics.gauge("journal_evicted", fn=lambda: self.journal.evicted)
        self.metrics.gauge("journal_spilled", fn=lambda: self.journal.spilled)
        self.metrics.gauge(
            "journal_spill_rotations", fn=lambda: self.journal.spill_rotations
        )
        self.metrics.gauge(
            "journal_spill_dropped_files", fn=lambda: self.journal.spill_dropped_files
        )
        self.metrics.gauge(
            "journal_spill_dropped_bytes", fn=lambda: self.journal.spill_dropped_bytes
        )
        self.metrics.gauge(
            "journal_spill_errors", fn=lambda: self.journal.spill_errors
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Negative delays are rejected (the simulator never travels
        backwards) and so is NaN (one such key silently breaks heap order).
        Returns the entry, which the caller may later pass to :meth:`cancel`.
        """
        if not delay >= 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        entry = [self.now + delay, next(self._seq), fn, args]
        heappush(self._heap, entry)
        return entry

    def schedule_at(self, when: float, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``.

        Times computed from accumulated float periods can land an ulp or two
        before ``now`` (e.g. ``10 * 0.1 < 1.0``); such infinitesimally
        negative deltas are clamped to "this instant" rather than rejected.
        Genuinely past times still raise.
        """
        delay = when - self.now
        if delay < 0 and -delay <= 1e-9 * max(1.0, abs(self.now)):
            delay = 0.0
        return self.schedule(delay, fn, *args)

    def call_now(self, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` for the current instant (after the caller)."""
        return self.schedule(0.0, fn, *args)

    def cancel(self, entry: Event) -> None:
        """Keep ``entry`` from firing.  Inert on one that has fired or was
        already cancelled."""
        entry[2] = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next event.  Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            time, __, fn, args = heappop(heap)
            if fn is None:
                continue
            self.now = time
            self._executing = True
            try:
                fn(*args)
            finally:
                self._executing = False
            self._events_processed += 1
            return True
        return False

    @property
    def executing(self) -> bool:
        """True while an event callback is running.

        Components that coalesce work into same-instant batches use this to
        decide between scheduling a zero-delay flush (inside the event loop,
        where later same-time events may still add to the batch) and
        flushing synchronously (direct calls from test or admin code).
        """
        return self._executing

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget.

        ``until`` is an absolute simulated time; events scheduled exactly at
        ``until`` still fire, and ``now`` always advances to ``until`` when
        one is given (even on an empty queue) so back-to-back
        ``run(until=...)`` calls carve out uniform windows regardless of
        event density.  ``max_events`` guards against runaway loops; when
        the budget stops the run early, ``now`` stays at the last fired
        event (the window was not fully simulated).
        """
        # Single inlined pop/skip/fire loop (the semantic twin of step()
        # called in a while loop, minus the per-event call overhead).
        # Cancelled entries are dropped wherever they surface at the head,
        # so they neither linger in the heap after an early return nor
        # mask the true next time.  The head is popped before it is
        # judged: only the one entry that ``until`` or the budget stops at
        # goes back, under its own ``(time, seq)``.  The ``_executing``
        # flag and the processed counter are maintained per *run*, not per
        # event: no code observes them between events (only callbacks run
        # inside the loop, and they see ``_executing=True`` either way),
        # and the counter is settled in the ``finally`` before ``run``
        # returns -- even when a callback raises.
        heap = self._heap
        pop = heappop
        limit = until if until is not None else _INF
        budget = max_events if max_events is not None else -1
        executed = 0
        self._executing = True
        try:
            while heap:
                entry = pop(heap)
                time, __, fn, args = entry
                if fn is None:
                    continue
                if time > limit:
                    heappush(heap, entry)
                    break
                if executed == budget:
                    heappush(heap, entry)
                    return
                self.now = time
                fn(*args)
                executed += 1
        finally:
            self._executing = False
            self._events_processed += executed
        if until is not None and until > self.now:
            self.now = until

    def _pending_times(self) -> Iterator[float]:
        """The time of every scheduled (non-cancelled) event: the live heap
        entries other than the lanes' heads, and every armed recurrence."""
        for entry in self._heap:
            fn = entry[2]
            if fn is not None and fn.__class__ is not _Lane:
                yield entry[0]
        for lane in self._lanes.values():
            for member in lane.queue:
                if member.armed:
                    yield member.time

    def events_pending(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue."""
        return sum(1 for __ in self._pending_times())

    @property
    def events_processed(self) -> int:
        """Total events executed since construction."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Periodic helpers
    # ------------------------------------------------------------------
    def every(
        self,
        period: float,
        fn: Callable[..., None],
        *args: Any,
        until: float | None = None,
    ) -> Callable[[], None]:
        """Run ``fn(*args)`` every ``period`` seconds, starting one period out.

        Returns a zero-argument callable that stops the recurrence.  Every
        recurrence of one ``period`` shares one heap entry (see
        :class:`_Lane`).
        """
        if not period > 0:  # NaN too: one NaN key breaks the lane's order
            raise ValueError(f"period must be positive (got {period})")
        lane = self._lanes.get(period)
        if lane is None:
            lane = self._lanes[period] = _Lane(self, period)
        return lane.join(fn, args, until).stop

    def timeline(self) -> Iterator[float]:
        """Yield the (sorted) times of currently pending events (debugging)."""
        return iter(sorted(self._pending_times()))

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.events_pending()}, "
            f"processed={self._events_processed})"
        )
