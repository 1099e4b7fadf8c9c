"""Causal traces, read from the journal.

A *trace* is the causal chain of one detection: the µmbox's alert
(``detect``), its trip over the control channel (``ingest-alert``), the
escalation (``escalate``), the pipeline's round (``evaluate``), the
posture's deployment (``actuate``) and the data-plane commit
(``flow-install``, or ``epoch-commit`` under two-phase updates).
Failovers, SLO breaches and campaigns open traces of their own.

Each stage writes one journal record carrying the trace id; a record that
closes several chains at once carries a tuple of ids.  A :class:`Span` is
derived from those records when read, in *simulated* time.  Within one
synchronous cascade the active trace rides a stack (:meth:`Tracer.push` /
:meth:`Tracer.current`): the simulator is single-threaded.

The view indexes new records only when read, so a run nobody reads pays
nothing for it.  Retention is the journal's ring: a trace whose records
were all evicted is gone, and one that lost only its opening records says
so (:meth:`Tracer.evicted`) instead of looking like a short chain.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.journal import Journal, JournalEntry

#: Canonical stage order of one detection chain (Figure 2's loop).  Spans
#: sort by simulated start time first; this index breaks same-instant ties
#: so e.g. ``escalate`` (instantaneous) lands before ``evaluate``.
STAGE_ORDER = (
    "detect",
    "ingest-alert",
    "escalate",
    "evaluate",
    "actuate",
    "flow-install",
    "epoch-commit",
)
_STAGE_INDEX = {stage: i for i, stage in enumerate(STAGE_ORDER)}

#: Record kinds journaled right after their trace id is allocated: the
#: oldest record of a whole trace is one of these.
_OPENERS = frozenset({"alert", "failover", "slo-breach", "campaign-start"})


@dataclass
class Span:
    """One stage of one causal chain, in simulated time.  ``attrs`` is the
    fields of the journal record that closed the stage (read-only)."""

    trace_id: int
    stage: str
    start: float
    end: float
    device: str = ""
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "stage": self.stage,
            "start": self.start,
            "end": self.end,
            "latency": self.latency,
            "device": self.device,
            "attrs": dict(self.attrs),
        }


def _spans_of(trace_id: int, records: "deque[JournalEntry]") -> list[Span]:
    """One trace's spans, derived from its records (oldest first)."""
    out: list[Span] = []
    opened: dict[str, float] = {}  # when the first record of a kind was journaled

    def add(stage: str, start: float, end: float, device: str, fields: dict) -> None:
        out.append(Span(trace_id, stage, start, end, device, fields))

    for record in records:
        kind, at, fields, device = record.kind, record.at, record.fields, record.device
        opened.setdefault(kind, at)
        if kind == "alert":
            add("detect", fields.get("started", at), at, device, fields)
        elif kind == "alert-ingest":
            # The controller's insider record rides the alert's trace; only
            # the alert itself crossed the channel.
            if fields.get("alert_kind") != "insider":
                add("ingest-alert", fields.get("sent_at", at), at, device, fields)
        elif kind == "escalation":
            add("escalate", at, at, device, fields)
        elif kind == "posture":
            since = opened.get("alert-ingest", opened.get("failover", at))
            add("evaluate", since, at, device, fields)
            add("actuate", at, fields.get("ready_at", at), device, fields)
        elif kind == "flow-install":
            add("flow-install", at, at, "", fields)
        elif kind == "epoch-commit":
            add("epoch-commit", at - fields.get("duration", 0.0), at, "", fields)
        elif kind == "failover":
            add("detect", fields.get("last_heartbeat", at), at, "", fields)
        elif kind == "failover-complete":
            add("restore", opened.get("failover", at), at, "", fields)
        elif kind in ("slo-breach", "slo-recover"):
            add(kind, opened.get("slo-breach", at), at, device, fields)
        elif kind == "campaign-stage":
            add("campaign-stage", at, at, "", fields)
    last = len(STAGE_ORDER)
    out.sort(key=lambda s: (s.start, _STAGE_INDEX.get(s.stage, last)))
    return out


class Tracer:
    """Trace-id allocator, active-trace stack, and a view over the journal."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: The journal the view reads (a ``Simulator`` binds its own).
        self.journal: Journal | None = None
        self._ids = itertools.count(1)
        self._stack: list[Any] = []
        self.started = 0
        # The view: retained traced records by trace id, plus one
        # (seq, trace id) per indexed record, oldest first, so the ring's
        # evictions leave the index without a rescan.
        self._read = 0
        self._chains: dict[int, deque[JournalEntry]] = {}
        self._indexed: deque[tuple[int, int]] = deque()

    def start_trace(self, device: str = "", **attrs: Any) -> int | None:
        """Allocate a new trace id (None when tracing is disabled).
        ``device`` and ``attrs`` are ignored: the opening record has them."""
        if not self.enabled:
            return None
        self.started += 1
        return next(self._ids)

    def span(self, trace_id, stage, start, end, device="", **attrs) -> None:
        """Records nothing: spans are derived from journal records.  Kept
        only because the ledger's wrapped-call list and its ``span_ns``
        probe still name it."""

    # -- active-trace stack (synchronous cascade propagation) ------------
    def push(self, trace_id: Any) -> None:
        self._stack.append(trace_id)

    def pop(self) -> None:
        if self._stack:
            self._stack.pop()

    def current(self) -> Any:
        return self._stack[-1] if self._stack else None

    # -- the view ---------------------------------------------------------
    def _sync(self) -> None:
        """Index what was journaled since the last read; forget what the
        ring has evicted since."""
        journal = self.journal
        if journal is None or journal.last_seq == self._read:
            return  # the ring evicts only when it records
        chains, indexed = self._chains, self._indexed
        for record in journal.entries_since(self._read):
            trace = record.trace_id
            if trace is None:
                continue
            for trace_id in trace if isinstance(trace, tuple) else (trace,):
                chains.setdefault(trace_id, deque()).append(record)
                indexed.append((record.seq, trace_id))
        self._read = journal.last_seq
        while indexed and indexed[0][0] <= journal.evicted:  # seqs 1..evicted are gone
            trace_id = indexed.popleft()[1]
            chain = chains[trace_id]
            chain.popleft()
            if not chain:
                del chains[trace_id]

    def spans(self, trace_id: int) -> list[Span]:
        """The spans of one trace, by start time, then stage order."""
        self._sync()
        records = self._chains.get(trace_id)
        return _spans_of(trace_id, records) if records else []

    def evicted(self, trace_id: int) -> bool:
        """True when the ring evicted the record that opened this trace,
        so its retained spans are only the chain's tail."""
        self._sync()
        records = self._chains.get(trace_id)
        return bool(records) and records[0].kind not in _OPENERS

    def trace_ids(self) -> list[int]:
        """Trace ids with a retained record, oldest first."""
        self._sync()
        return sorted(self._chains)

    def traces_for(self, device: str) -> list[int]:
        """Trace ids (oldest first) with a span on ``device``."""
        return [t for t in self.trace_ids() if any(s.device == device for s in self.spans(t))]

    def last_trace(self, device: str) -> int | None:
        ids = self.traces_for(device)
        return ids[-1] if ids else None

    def render(self, trace_id: int) -> str:
        """A human-readable stage-by-stage view with simulated latencies."""
        spans = self.spans(trace_id)
        if not spans:
            return f"trace #{trace_id}: (no spans)"
        root = spans[0]
        total = max(s.end for s in spans) - min(s.start for s in spans)
        lines = [
            f"trace #{trace_id}"
            f" device={root.device or '-'}"
            f" start=t+{root.start:.3f}s"
            f" total={total * 1e3:.1f}ms"
            + (" (opening records evicted)" if self.evicted(trace_id) else "")
        ]
        for span in spans:
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            lines.append(
                f"  {span.stage:<14} t={span.start:>9.4f} -> {span.end:>9.4f}"
                f"  (+{span.latency * 1e3:7.2f}ms)"
                f"  {span.device:<10} {attrs}".rstrip()
            )
        return "\n".join(lines)
