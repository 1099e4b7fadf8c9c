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
  does nothing -- there is no pool and no entry is ever reused.
- The data-plane-volume senders build and push their entry themselves --
  same ``now + delay``, same ``next(seq)`` -- which saves the call into
  :meth:`schedule` on every hop, timer tick and alert.  Each checks its
  delay where it is configured.  A change to the entry's layout must
  change every site that builds one, and these are all of them:

  - :meth:`Simulator.schedule` here;
  - :class:`_Periodic` here (each re-arm);
  - :meth:`Link.transmit <repro.netsim.link.Link.transmit>`;
  - the fault-free unreliable branch of :meth:`ControlChannel.send
    <repro.sdn.channel.ControlChannel.send>`, the one site outside
    ``netsim``.

  Everything else calls :meth:`schedule`.
- :meth:`run` inlines the pop/skip/fire loop rather than calling
  :meth:`step` per event; both share the same observable semantics.  It
  pops first and pushes the head back only when ``until`` or the budget
  stops it.
- :meth:`every` uses a preallocated :class:`_Periodic` dispatch object
  instead of a pair of closures, so each tick re-arms itself without
  rebuilding cells.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from repro.obs import Journal, MetricsRegistry, Tracer

#: Sentinel horizon for ``run(until=None)``: every event time compares below.
_INF = float("inf")

#: A scheduled callback, ``[time, seq, fn, args]``: the heap entry and the
#: handle for :meth:`Simulator.cancel`.  A plain list, named for annotations.
Event = list


class _Periodic:
    """Precomputed dispatch object behind :meth:`Simulator.every`.

    One instance per recurrence; the simulator schedules the instance
    itself as the event callback, so each tick is a plain ``__call__``
    with no closure-cell traffic.  Only the live (next) entry is kept:
    long-running periodic tasks (health checks, telemetry) must not
    accumulate one dead entry per fired tick.
    """

    __slots__ = ("sim", "period", "fn", "args", "until", "stopped", "event")

    def __init__(
        self,
        sim: "Simulator",
        period: float,
        fn: Callable[..., None],
        args: tuple,
        until: float | None,
    ) -> None:
        self.sim = sim
        self.period = period
        self.fn = fn
        self.args = args
        self.until = until
        self.stopped = False
        self.event: Event | None = sim.schedule(period, self)

    def __call__(self) -> None:
        if self.stopped:
            return
        self.fn(*self.args)
        sim = self.sim
        when = sim.now + self.period
        if self.until is None or when <= self.until:
            self.event = event = [when, next(sim._seq), self, ()]
            heappush(sim._heap, event)
        else:
            self.event = None

    def stop(self) -> None:
        self.stopped = True
        event = self.event
        if event is not None:
            event[2] = None
            self.event = None


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

    def events_pending(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue."""
        return sum(1 for entry in self._heap if entry[2] is not None)

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

        Returns a zero-argument callable that stops the recurrence.
        """
        if period <= 0:
            raise ValueError(f"period must be positive (got {period})")
        return _Periodic(self, period, fn, args, until).stop

    def timeline(self) -> Iterator[float]:
        """Yield the (sorted) times of currently pending events (debugging)."""
        return iter(sorted(entry[0] for entry in self._heap if entry[2] is not None))

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.6f}, pending={self.events_pending()}, "
            f"processed={self._events_processed})"
        )
