"""The controller's staged reactive pipeline.

The policy loop of Figure 2 -- events in, postures out -- runs through four
explicit stages instead of ad-hoc callbacks:

1. **ingest**: view-key changes land here (via the global view's dirty-key
   notification) and are translated into *dirty devices* through the
   pruned policy's reverse index ``variable key -> affected devices``.
   No per-change scan over all devices ever happens.
2. **escalate**: raw alert streams become context values through sliding
   count/window rules (:class:`EscalationEngine`).  A ``(device, kind)``
   window is pruned to the kind's widest rule window only when that pair
   observes again, so a device that stops alerting keeps its last window
   for the rest of the run (ROADMAP item 21(a)).
3. **evaluate**: dirty devices accumulated at the same simulated instant
   are coalesced into one evaluation round -- one ``system_state`` build,
   one pruned lookup per dirty device -- scheduled as a zero-delay event
   so every same-instant change joins the batch.  A burst of N alerts
   touching M devices costs one round, not N*M re-evaluations.
4. **actuate**: the round's posture assignments go to the orchestrator as
   one :meth:`PostureOrchestrator.apply_many` batch -- at most one apply
   per device per round, one flow-rule push per switch.

Reaction latency semantics are preserved: each :class:`ReactionRecord`
measures from the *first* view change that marked the device dirty to the
instant the orchestrator applied the new posture.

When the pipeline is driven outside the event loop (tests, administrative
calls like ``set_context``), the round flushes synchronously so effects
remain immediately observable.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping

from repro.obs import COUNT_BUCKETS
from repro.policy.context import COMPROMISED, SEVERITY, SUSPICIOUS
from repro.policy.pruning import PrunedPolicy
from repro.policy.serialization import posture_to_dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.orchestrator import PostureOrchestrator
    from repro.core.view import GlobalView
    from repro.netsim.simulator import Event, Simulator
    from repro.policy.fsm import PolicyFSM, PostureRule


@dataclass(frozen=True)
class EscalationRule:
    """``count`` alerts of ``kind`` within ``window`` seconds => context."""

    alert_kind: str
    context: str
    count: int = 1
    window: float = 60.0


DEFAULT_ESCALATIONS: tuple[EscalationRule, ...] = (
    EscalationRule("signature-match", SUSPICIOUS, count=1),
    EscalationRule("login-rejected", SUSPICIOUS, count=3, window=60.0),
    EscalationRule("login-attempt", SUSPICIOUS, count=5, window=30.0),
    EscalationRule("rate-limited", SUSPICIOUS, count=1),
    EscalationRule("firewall-blocked", SUSPICIOUS, count=5, window=60.0),
    EscalationRule("context-gate-blocked", SUSPICIOUS, count=2, window=60.0),
    EscalationRule("command-not-whitelisted", SUSPICIOUS, count=1),
    EscalationRule("dns-reflection-blocked", COMPROMISED, count=10, window=10.0),
    # The edge dropped a packet that claimed a trusted identity from a
    # port not its own (``SecuredDeployment._on_forgery``).
    EscalationRule("source-forgery", COMPROMISED, count=1),
    EscalationRule("unapproved-source", SUSPICIOUS, count=3, window=60.0),
    EscalationRule("anomalous-command", SUSPICIOUS, count=2, window=300.0),
    # "insider": a *registered device* appears as the source of an alert at
    # some other device's µmbox -- the launchpad pattern of Figure 1.
    EscalationRule("insider", SUSPICIOUS, count=1),
)


@dataclass(slots=True)
class ReactionRecord:
    """Cause -> effect timing for the responsiveness benches."""

    device: str
    trigger_key: str
    trigger_at: float
    applied_at: float
    posture: str
    #: Causal-trace id of the alert that triggered the reaction (None for
    #: untraced triggers such as environment changes or admin calls).
    trace_id: int | None = None

    @property
    def latency(self) -> float:
        return self.applied_at - self.trigger_at


@dataclass
class PipelineStats:
    """Counters for each stage, reported by the scale benches."""

    ingested: int = 0      # policy-relevant view changes accepted
    coalesced: int = 0     # device marks absorbed into an existing round
    rounds: int = 0        # evaluation rounds flushed
    evaluations: int = 0   # pruned posture lookups performed
    applies: int = 0       # orchestrator records produced


class EscalationEngine:
    """Stage 2: sliding count/window escalation over per-device alert streams.

    Timestamps are kept per ``(device, alert kind)`` and pruned, when that
    pair observes, to the widest window any rule declares for that kind
    (boundary-inclusive, matching the ``t >= at - window`` rule test).  A
    pair that stops observing is never pruned: retained memory grows with
    the number of pairs that ever alerted and keeps their last window,
    which every checkpoint carries (ROADMAP item 21(a)).
    """

    def __init__(self, rules: Iterable[EscalationRule]) -> None:
        self.rules: tuple[EscalationRule, ...] = tuple(rules)
        # Precomputed per-kind dispatch: one lookup yields both the rule
        # tuple and the widest pruning window for that kind, so ``observe``
        # never walks the full rule list or consults two dicts.
        by_kind: dict[str, list[EscalationRule]] = {}
        for rule in self.rules:
            by_kind.setdefault(rule.alert_kind, []).append(rule)
        self._kind_table: dict[str, tuple[tuple[EscalationRule, ...], float]] = {
            kind: (tuple(kind_rules), max(r.window for r in kind_rules))
            for kind, kind_rules in by_kind.items()
        }
        self._alert_times: dict[tuple[str, str], list[float]] = {}

    def observe(self, device: str, alert_kind: str, at: float) -> str | None:
        """Record one alert; return the most severe context it triggers."""
        times = self._alert_times.setdefault((device, alert_kind), [])
        times.append(at)
        entry = self._kind_table.get(alert_kind)
        if entry is None:
            # No rule cares about this kind: horizon collapses to ``at``,
            # so only same-instant timestamps survive (as before).
            if times[0] < at:
                times[:] = [t for t in times if t >= at]
            return None
        kind_rules, max_window = entry
        horizon = at - max_window
        if times[0] < horizon:
            times[:] = [t for t in times if t >= horizon]
        triggered: str | None = None
        for rule in kind_rules:
            recent = sum(1 for t in times if t >= at - rule.window)
            if recent >= rule.count and (
                triggered is None
                or SEVERITY.get(rule.context, 0) > SEVERITY.get(triggered, 0)
            ):
                triggered = rule.context
        return triggered

    def pending_counts(self) -> dict[tuple[str, str], int]:
        """Retained timestamps per (device, kind) -- for leak tests."""
        return {key: len(times) for key, times in self._alert_times.items()}

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot(self) -> list[list]:
        """Sliding-window timestamps in a stable, JSON-plain shape:
        ``[[device, alert_kind, [t0, t1, ...]], ...]`` sorted by key."""
        return [
            [device, kind, list(times)]
            for (device, kind), times in sorted(self._alert_times.items())
            if times
        ]

    def windows(self) -> Mapping[tuple[str, str], list[float]]:
        """Every ``(device, alert_kind)`` window, live and unsorted (empty
        ones included): read-only, and copied by whoever keeps one."""
        return MappingProxyType(self._alert_times)

    def restore(self, data: Iterable[Iterable]) -> None:
        """Load a :meth:`snapshot` (replacing current window state)."""
        self._alert_times = {
            (str(device), str(kind)): [float(t) for t in times]
            for device, kind, times in data
        }


class ReactivePipeline:
    """Stages 1, 3 and 4, plus ownership of the policy's derived state."""

    def __init__(
        self,
        sim: "Simulator",
        view: "GlobalView",
        policy: "PolicyFSM",
        orchestrator: "PostureOrchestrator",
        escalations: tuple[EscalationRule, ...] = DEFAULT_ESCALATIONS,
    ) -> None:
        self.sim = sim
        self.view = view
        self.policy = policy
        self.orchestrator = orchestrator
        self.escalator = EscalationEngine(escalations)
        self.pruned = PrunedPolicy(policy)
        self.stats = PipelineStats()
        self.reactions: list[ReactionRecord] = []
        #: device -> (first trigger key, trigger time, trace id) for the
        #: open round
        self._dirty: dict[str, tuple[str, float, int | None]] = {}
        self._flush_event: "Event | None" = None
        #: Inside :meth:`discarding`: mark nothing for a round.
        self._discarding = False
        self._refresh_policy_view()
        view.subscribe_dirty(self.ingest)
        # Observability: stage gauges are callbacks over ``stats`` (free on
        # the hot path); histograms are observed once per round.
        metrics = sim.metrics
        stats = self.stats
        self.metric_labels = {"pipeline": metrics.unique("pipeline", "pipeline")}
        metrics.gauge("pipeline_ingested", fn=lambda: stats.ingested, **self.metric_labels)
        metrics.gauge("pipeline_coalesced", fn=lambda: stats.coalesced, **self.metric_labels)
        metrics.gauge("pipeline_rounds", fn=lambda: stats.rounds, **self.metric_labels)
        metrics.gauge("pipeline_evaluations", fn=lambda: stats.evaluations, **self.metric_labels)
        metrics.gauge("pipeline_applies", fn=lambda: stats.applies, **self.metric_labels)
        metrics.gauge("pipeline_dirty_depth", fn=lambda: len(self._dirty), **self.metric_labels)
        self._h_batch = metrics.histogram(
            "pipeline_batch_size", bounds=COUNT_BUCKETS, **self.metric_labels
        )
        self._h_reaction = metrics.histogram(
            "pipeline_reaction_latency", **self.metric_labels
        )
        self._c_escalations = metrics.counter(
            "pipeline_escalations", **self.metric_labels
        )
        #: device -> cached ``pipeline_device_applies`` counter, so each
        #: actuation round does one dict lookup per record instead of a
        #: full label-set get-or-create through the registry.
        self._device_apply_counters: dict[str, Any] = {}

    def _refresh_policy_view(self) -> None:
        self._policy_keys = tuple(v.key for v in self.policy.space.variables())
        self._key_set = frozenset(self._policy_keys)
        self._defaults = {
            domain.variable.key: domain.values[0]
            for domain in self.policy.space.domains
        }

    @property
    def defaults(self) -> dict[str, str]:
        """Domain-baseline values for unobserved policy variables."""
        return self._defaults

    def system_state(self):
        """The current policy-relevant system state (explain/forensics API)."""
        return self.view.system_state(self._policy_keys, self._defaults)

    # ------------------------------------------------------------------
    # Stage 1: ingest
    # ------------------------------------------------------------------
    def ingest(self, key: str) -> None:
        """A view key changed: mark affected devices dirty for this round."""
        if key not in self._key_set:
            return
        affected = self.pruned.devices_affected_by(key)
        if not affected:
            return
        self.stats.ingested += 1
        at = self.sim.now
        # The causal trace active on the tracer's stack (the alert whose
        # handling produced this view change), if any, becomes the trigger
        # trace of every device this change marks dirty.
        trace = self.sim.tracer.current()
        dirty = self._dirty
        for device in affected:
            if device in dirty:
                self.stats.coalesced += 1
            else:
                dirty[device] = (key, at, trace)
        self._schedule_flush()

    # ------------------------------------------------------------------
    # Stage 2: escalate (delegated to the engine; context writes stay with
    # the controller, whose severity rules guard against downgrades)
    # ------------------------------------------------------------------
    def escalate(self, device: str, alert_kind: str, at: float) -> str | None:
        context = self.escalator.observe(device, alert_kind, at)
        if context is not None:
            self._c_escalations.inc()
        return context

    # ------------------------------------------------------------------
    # Stages 3 + 4: evaluate and actuate
    # ------------------------------------------------------------------
    def _schedule_flush(self) -> None:
        if not self._dirty or self._discarding:
            return
        if self.sim.executing:
            # Inside the event loop: coalesce every same-instant change
            # into one zero-delay round (FIFO tie-breaking guarantees the
            # flush runs after all already-queued events of this instant).
            if self._flush_event is None:
                self._flush_event = self.sim.schedule(0.0, self._flush)
        else:
            # Direct administrative/test call: effects must be visible
            # immediately, so run the round synchronously.
            self._flush()

    def _flush(self) -> None:
        self._flush_event = None
        if not self._dirty:
            return
        batch, self._dirty = self._dirty, {}
        self.stats.rounds += 1
        self._h_batch.observe(len(batch))
        orchestrator = self.orchestrator
        devices = [
            device
            for device in sorted(batch)
            if device not in orchestrator.pinned and device in orchestrator.attachments
        ]
        if not devices:
            return
        # The round's state covers only what its lookups read: each
        # projected table projects the state onto its own variables, so a
        # state over their union yields the postures the full state would.
        pruned = self.pruned
        keys: set[str] = set()
        for device in devices:
            table = pruned.tables.get(device)
            if table is not None:
                keys.update(table.variables)
        state = self.view.system_state(keys, self._defaults)
        self.stats.evaluations += len(devices)
        assignments = [(device, pruned.posture_for(state, device)) for device in devices]
        triggers = {device: batch[device] for device in devices}
        records = orchestrator.apply_many(
            assignments,
            traces={dev: t[2] for dev, t in triggers.items() if t[2] is not None},
        )
        applied_at = self.sim.now
        metrics = self.sim.metrics
        round_no = self.stats.rounds
        for record in records:
            trigger_key, trigger_at, trace = triggers[record.device]
            reaction = ReactionRecord(
                device=record.device,
                trigger_key=trigger_key,
                trigger_at=trigger_at,
                applied_at=applied_at,
                posture=record.posture,
                trace_id=trace,
            )
            self.reactions.append(reaction)
            self._h_reaction.observe(reaction.latency)
            counter = self._device_apply_counters.get(record.device)
            if counter is None:
                counter = metrics.counter(
                    "pipeline_device_applies", device=record.device, **self.metric_labels
                )
                self._device_apply_counters[record.device] = counter
            counter.inc()
        self.stats.applies += len(records)
        self.sim.journal.record(
            "pipeline-round",
            round=round_no,
            batch=len(batch),
            evaluated=len(assignments),
            applied=len(records),
        )

    def halt(self) -> None:
        """Stop the pipeline dead (the owning controller crashed).

        Cancels any pending zero-delay flush and clears the dirty set so
        a dead controller cannot actuate postures from beyond the grave.
        """
        if self._flush_event is not None:
            self.sim.cancel(self._flush_event)
            self._flush_event = None
        self._dirty.clear()

    @contextmanager
    def discarding(self) -> Iterator[None]:
        """Open no round for the view changes made inside the block:
        nothing flushes, in the event loop or outside it, and whatever
        they marked dirty is dropped on exit."""
        self._discarding = True
        try:
            yield
        finally:
            self._discarding = False
            self.halt()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def dirty_snapshot(self) -> list[list]:
        """The open round's dirty set as ``[[device, key, at], ...]``
        sorted -- trace ids are process-local and deliberately dropped."""
        return [
            [device, key, at]
            for device, (key, at, __) in sorted(self._dirty.items())
        ]

    def restore_dirty(self, data: Iterable[Iterable]) -> None:
        """Merge a :meth:`dirty_snapshot` into the open round (traceless)."""
        for device, key, at in data:
            self._dirty.setdefault(str(device), (str(key), float(at), None))
        self._schedule_flush()

    def evaluate_device(self, device: str, trigger_key: str) -> None:
        """Run an immediate round for one device (runtime policy updates)."""
        self._dirty.setdefault(
            device, (trigger_key, self.sim.now, self.sim.tracer.current())
        )
        self._flush()

    def enforce_all(self) -> None:
        """Evaluate every policy device against the current view, batched."""
        orchestrator = self.orchestrator
        state = self.view.system_state(self._policy_keys, self._defaults)
        orchestrator.apply_many(
            [
                (device, self.pruned.posture_for(state, device))
                for device in self.policy.devices
                if device in orchestrator.attachments
                and device not in orchestrator.pinned
            ]
        )

    # ------------------------------------------------------------------
    # Policy mutation
    # ------------------------------------------------------------------
    def add_rule(self, rule: "PostureRule") -> None:
        """Incrementally add a runtime rule: only the touched device's
        projected table and reverse-index entries are rebuilt."""
        self.pruned.add_rule(rule)
        self._refresh_policy_view()
        # The serialized rule makes this entry a write-ahead-log record: a
        # restored controller can re-add the rule from the journal alone.
        self.sim.journal.record(
            "policy-update",
            device=rule.device,
            rule_id=rule.rule_id,
            predicate=str(rule.predicate),
            posture=rule.posture.name,
            priority=rule.priority,
            rule={
                "when": dict(rule.predicate.requirements),
                "device": rule.device,
                "priority": rule.priority,
                "posture": posture_to_dict(rule.posture),
            },
        )
