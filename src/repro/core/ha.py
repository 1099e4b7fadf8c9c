"""Controller survivability: checkpoint/restore and hot-standby failover.

The paper's logically centralized controller is a single point of failure:
if the process dies, every escalated context, every sliding alert window
and every runtime policy rule dies with it -- and the data plane keeps
enforcing a posture nobody remembers deciding.  This module makes the
controller a service that can die and come back:

- :class:`Checkpoint` -- a deterministic, versioned snapshot of the
  controller's security state (global view, escalation window timestamps,
  pipeline dirty-set, the full serialized policy including runtime rules,
  epoch counters) with a stable content digest.  Two controllers holding
  the same state produce byte-identical checkpoints.
- :class:`Checkpointer` -- the primary-side HA agent: periodic
  ``sim.every``-driven capture into a :class:`CheckpointStore` (the local
  "disk"), plus optional replication to a standby endpoint over the lossy
  control channel -- checkpoints and journal deltas ride at-least-once,
  heartbeats fire-and-forget (a retried heartbeat is a lie about
  liveness).
- :func:`restore_controller` -- cold restart: rebuild a controller from
  the latest checkpoint and replay the journal tail (``sim.journal`` as
  write-ahead log) from the checkpoint's sequence number, reconstructing
  contexts, escalation windows and runtime rules recorded after the last
  snapshot.
- :class:`StandbyController` -- hot standby: consumes replicated
  checkpoints + deltas, detects primary death by heartbeat timeout
  (seeded jitter, so fleets don't stampede), and takes over: registers
  under the primary's endpoint name (the alerts the cluster's lane holds
  for it deliver to the new incumbent automatically), restores
  state, re-adopts the switches, reconciles installed flow rules against
  the restored policy (diff through ``apply_many`` -> minimal re-push,
  no full re-enforce) and journals the whole ``failover`` causal chain
  for ``repro incident``.

What restore cannot recover is journaled, not hidden: environment sensor
readings are not write-ahead logged (they heal on the next sensor tick),
and a rule added *and* lost inside the same unreplicated window is gone --
the journal's ``failover-complete`` record carries the replayed counts so
the gap is measurable.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

from repro.core.controller import IoTSecController
from repro.policy.fsm import PostureRule, StatePredicate
from repro.policy.serialization import (
    canonical_json,
    policy_from_dict,
    policy_section,
    policy_to_dict,
    posture_from_dict,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment
    from repro.sdn.channel import ControlChannel, ControlMessage

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointStore",
    "Checkpointer",
    "StandbyController",
    "reconcile",
    "replay_entries",
    "restore_checkpoint",
    "restore_controller",
]

#: Checkpoint format version; bumped on any incompatible layout change.
CHECKPOINT_VERSION = 1

#: How often a replicating primary heartbeats its standby, and how long
#: the standby waits in silence before taking over (plus seeded jitter).
HEARTBEAT_PERIOD = 0.25
FAILOVER_TIMEOUT = 1.0


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Checkpoint:
    """One versioned, digestable snapshot of controller security state."""

    version: int
    at: float
    #: Journal high-water mark at capture time: restore replays entries
    #: with ``seq > checkpoint.seq`` (the WAL contract).
    seq: int
    controller: str
    view: dict[str, str]
    #: ``[[device, alert_kind, [timestamps...]], ...]`` sorted.
    escalations: list[list[Any]]
    #: ``[[device, trigger_key, trigger_at], ...]`` sorted (trace ids are
    #: process-local and deliberately dropped).
    dirty: list[list[Any]]
    #: The full serialized policy, runtime rules included.  Captures at
    #: one policy revision share this dict: read-only.
    policy: dict[str, Any]
    #: ``[[device, posture_name], ...]`` -- what the data plane had
    #: installed at capture time (reconciliation evidence).
    postures: list[list[str]]
    epochs: dict[str, int]
    #: Canonical JSON of ``policy`` when :meth:`capture` had it cached
    #: (``None``, e.g. after :meth:`from_dict`: :meth:`digest` encodes).
    _policy_json: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def capture(cls, controller: IoTSecController) -> "Checkpoint":
        pipeline = controller.pipeline
        policy, policy_json = policy_section(controller.policy)
        checkpoint = cls(
            version=CHECKPOINT_VERSION,
            at=controller.sim.now,
            seq=controller.sim.journal.last_seq,
            controller=controller.name,
            view=controller.view.snapshot(),
            escalations=pipeline.escalator.snapshot(),
            dirty=pipeline.dirty_snapshot(),
            policy=policy,
            postures=sorted(
                [d, p.name] for d, p in controller.orchestrator.current.items()
            ),
            epochs={"rounds": pipeline.stats.rounds},
        )
        object.__setattr__(checkpoint, "_policy_json", policy_json)
        return checkpoint

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "at": self.at,
            "seq": self.seq,
            "controller": self.controller,
            "view": dict(self.view),
            "escalations": [list(e) for e in self.escalations],
            "dirty": [list(d) for d in self.dirty],
            "policy": self.policy,
            "postures": [list(p) for p in self.postures],
            "epochs": dict(self.epochs),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Checkpoint":
        version = int(data.get("version", -1))
        if version != CHECKPOINT_VERSION:
            raise ValueError(
                f"unsupported checkpoint version {version} "
                f"(this build reads version {CHECKPOINT_VERSION})"
            )
        return cls(
            version=version,
            at=float(data["at"]),
            seq=int(data["seq"]),
            controller=str(data["controller"]),
            view=dict(data["view"]),
            escalations=[list(e) for e in data.get("escalations", ())],
            dirty=[list(d) for d in data.get("dirty", ())],
            policy=dict(data["policy"]),
            postures=[list(p) for p in data.get("postures", ())],
            epochs=dict(data.get("epochs", {})),
        )

    def digest(self) -> str:
        """Stable content digest: sha256 over the canonical JSON form.

        The bytes are ``canonical_json(self.as_dict())``, assembled
        section by section so a cached policy fragment is spliced in
        instead of encoded again.
        """
        sections = self.as_dict()
        fragments = []
        for key in sorted(sections):
            if key == "policy" and self._policy_json is not None:
                fragment = self._policy_json
            else:
                fragment = canonical_json(sections[key])
            fragments.append(f"{canonical_json(key)}:{fragment}")
        canonical = "{" + ",".join(fragments) + "}"
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return (
            f"Checkpoint(v{self.version} t={self.at:.3f} seq={self.seq} "
            f"view={len(self.view)} digest={self.digest()[:12]})"
        )


class CheckpointStore:
    """The last-N checkpoints (the controller's local stable storage)."""

    def __init__(self, keep: int = 4) -> None:
        if keep <= 0:
            raise ValueError(f"keep must be positive (got {keep})")
        self.keep = keep
        self._checkpoints: list[Checkpoint] = []
        self.captured = 0

    def add(self, checkpoint: Checkpoint) -> None:
        self._checkpoints.append(checkpoint)
        self.captured += 1
        del self._checkpoints[: -self.keep]

    def latest(self) -> Checkpoint | None:
        return self._checkpoints[-1] if self._checkpoints else None

    def latest_at(self) -> float | None:
        """Sim-time of the newest checkpoint (the staleness SLO's signal)."""
        latest = self.latest()
        return latest.at if latest is not None else None

    def __len__(self) -> int:
        return len(self._checkpoints)

    def __iter__(self):
        return iter(self._checkpoints)


class Checkpointer:
    """Primary-side HA agent: periodic capture, replication, heartbeats.

    Replication is optional (pass ``standby=None`` for local-only
    checkpointing, the cold-restart configuration).  Checkpoints and
    journal deltas ride ``reliable=True`` (the lane to the standby);
    heartbeats are deliberately fire-and-forget.
    """

    def __init__(
        self,
        controller: IoTSecController,
        store: CheckpointStore,
        period: float = 5.0,
        channel: "ControlChannel | None" = None,
        standby: str | None = None,
        heartbeat_period: float = HEARTBEAT_PERIOD,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive (got {period})")
        self.controller = controller
        self.store = store
        self.period = period
        self.channel = channel
        self.standby = standby
        self._last_shipped_seq = controller.sim.journal.last_seq
        # Reuse rate = sections_reused / captured: how many ticks shared
        # the previous checkpoint's policy section instead of building one.
        metrics = controller.sim.metrics
        self._c_captured = metrics.counter(
            "checkpoints_captured", controller=controller.name
        )
        self._c_reused = metrics.counter(
            "checkpoint_sections_reused", controller=controller.name
        )
        self._stops: list[Callable[[], None]] = [
            controller.sim.every(period, self._tick)
        ]
        if channel is not None and standby is not None:
            self._stops.append(
                controller.sim.every(heartbeat_period, self._heartbeat)
            )

    def _tick(self) -> None:
        controller = self.controller
        if controller.crashed:
            return
        previous = self.store.latest()
        checkpoint = Checkpoint.capture(controller)
        self._c_captured.inc()
        if previous is not None and checkpoint.policy is previous.policy:
            self._c_reused.inc()
        self.store.add(checkpoint)
        controller.sim.journal.record(
            "checkpoint",
            controller=controller.name,
            seq=checkpoint.seq,
            digest=checkpoint.digest(),
            view_keys=len(checkpoint.view),
        )
        if self.channel is not None and self.standby is not None:
            self.channel.send(
                controller.name,
                self.standby,
                "ha-checkpoint",
                {"checkpoint": checkpoint.as_dict()},
                reliable=True,
            )
            self._ship_deltas()

    def _heartbeat(self) -> None:
        controller = self.controller
        if controller.crashed or self.channel is None or self.standby is None:
            return
        self.channel.send(
            controller.name, self.standby, "ha-heartbeat", {"at": controller.sim.now}
        )
        self._ship_deltas()

    def _ship_deltas(self) -> None:
        """Replicate journal entries recorded since the last shipment."""
        assert self.channel is not None and self.standby is not None
        entries = self.controller.sim.journal.entries_since(self._last_shipped_seq)
        if not entries:
            return
        self._last_shipped_seq = entries[-1].seq
        self.channel.send(
            self.controller.name,
            self.standby,
            "ha-delta",
            {"entries": [e.as_dict() for e in entries]},
            reliable=True,
        )

    def stop(self) -> None:
        for stop in self._stops:
            stop()
        self._stops = []


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_checkpoint(controller: IoTSecController, checkpoint: Checkpoint) -> None:
    """Load a checkpoint into a (freshly built) controller, silently.

    The view is restored without change notification -- re-evaluation is
    :func:`reconcile`'s job, after the journal tail has replayed.  The
    target controller must have been built from the checkpoint's policy
    (``policy_from_dict(checkpoint.policy)``) for projections to match.
    """
    controller.view.restore(checkpoint.view)
    controller.pipeline.escalator.restore(checkpoint.escalations)
    controller.pipeline.restore_dirty(checkpoint.dirty)
    controller.pipeline.stats.rounds = int(checkpoint.epochs.get("rounds", 0))


#: Journal kinds the restore path replays (the WAL subset: controller
#: security state).  Everything else in the journal is evidence *about*
#: other components, not controller state.
_REPLAYED_KINDS = ("context", "alert-ingest", "policy-update")


def replay_entries(
    controller: IoTSecController, entries: Iterable[Mapping[str, Any]]
) -> dict[str, int]:
    """Replay journal-entry dicts (the tail past a checkpoint's seq).

    - ``context`` entries re-raise device contexts (severity-guarded, so
      out-of-order replays cannot downgrade);
    - ``alert-ingest`` entries re-feed the escalation engine at the
      alert's original timestamp, rebuilding the sliding windows (the
      *triggered* context is not taken from the replayed observation --
      the journal's own ``context`` entries carry the outcome);
    - ``policy-update`` entries carrying a serialized rule re-add the
      runtime rule (fresh ``rule_id``; identity is process-local).
    """
    counts = {"contexts": 0, "alerts": 0, "rules": 0}
    for entry in sorted(entries, key=lambda e: int(e["seq"])):
        kind = entry.get("kind")
        fields = entry.get("fields", {})
        if kind == "context":
            context = str(fields.get("context", ""))
            if context:
                controller.set_context(str(entry.get("device", "")), context)
                counts["contexts"] += 1
        elif kind == "alert-ingest":
            device = str(entry.get("device", ""))
            alert_kind = str(fields.get("alert_kind", ""))
            if device and alert_kind:
                controller.pipeline.escalator.observe(
                    device, alert_kind, float(fields.get("sent_at", entry["at"]))
                )
                counts["alerts"] += 1
        elif kind == "policy-update" and "rule" in fields:
            rule = dict(fields["rule"])
            controller.pipeline.add_rule(
                PostureRule(
                    predicate=StatePredicate.make(dict(rule.get("when", {}))),
                    device=str(rule["device"]),
                    posture=posture_from_dict(rule.get("posture", {})),
                    priority=int(rule.get("priority", 100)),
                )
            )
            counts["rules"] += 1
    return counts


def reconcile(controller: IoTSecController) -> tuple[int, int]:
    """Diff restored policy state against the surviving data plane.

    Every unpinned attached device is evaluated against the restored
    view; ``apply_many`` skips devices whose installed posture already
    matches, so only genuinely divergent devices cost a re-push (one
    epoch per touched switch in consistent mode).  When the restored
    policy's answer for a device is the *permissive default* but the data
    plane has something stricter installed (an administrative monitor
    baseline, a posture from a rule added and lost in the unreplicated
    window), the installed posture wins: reconciliation after a crash
    must never lower a device's defenses.  Returns ``(checked,
    repushed)``.
    """
    orchestrator = controller.orchestrator
    pipeline = controller.pipeline
    state = pipeline.system_state()
    assignments = []
    for device in controller.policy.devices:
        if device not in orchestrator.attachments or device in orchestrator.pinned:
            continue
        target = pipeline.pruned.posture_for(state, device)
        installed = orchestrator.current.get(device)
        if (
            target.is_permissive
            and installed is not None
            and not installed.is_permissive
        ):
            continue
        assignments.append((device, target))
    records = orchestrator.apply_many(assignments)
    controller.sim.journal.record(
        "failover-reconcile",
        trace=controller.sim.tracer.current(),
        checked=len(assignments),
        repushed=len(records),
    )
    return len(assignments), len(records)


def _revive(
    site: "SecuredDeployment",
    checkpoint: Checkpoint | None,
    tail: Iterable[Mapping[str, Any]],
    fallback_policy: dict[str, Any],
) -> tuple[IoTSecController, dict[str, int], tuple[int, int]]:
    """Build + restore + replay + re-adopt + reconcile (shared core).

    ``site`` is the deployment the revived controller serves; it builds
    and names the incarnation and says what to re-adopt."""
    policy = policy_from_dict(
        checkpoint.policy if checkpoint is not None else fallback_policy
    )
    controller = site.new_controller(policy, site.CONTROLLER)
    # Registration marks every device dirty with its fresh NORMAL context.
    # A round on that would re-derive *default* postures and tear down
    # anything stricter already on the wire (a monitor baseline, an
    # operator's block) -- at once, when the restart is called outside
    # the event loop.  Discard it unflushed: the checkpoint's dirty set is
    # the authoritative open round, and reconcile() handles divergence.
    with controller.pipeline.discarding():
        for device in site.devices.values():
            controller.register_device(device)
    if checkpoint is not None:
        restore_checkpoint(controller, checkpoint)
    counts = replay_entries(controller, tail)
    for switch in site.switches():
        controller.adopt_packet_in(switch)
    controller.watch_environment(site.env)
    checked = reconcile(controller)
    return controller, counts, checked


def restore_controller(
    site: "SecuredDeployment",
    checkpoint: Checkpoint,
    tail: Iterable[Mapping[str, Any]] = (),
) -> IoTSecController:
    """Cold restart: rebuild the controller from checkpoint + WAL tail.

    ``tail`` is the journal entries (dict form) with ``seq`` past
    ``checkpoint.seq`` -- for a local restart, straight out of
    ``sim.journal.entries_since(checkpoint.seq)``.
    """
    controller, counts, (checked, repushed) = _revive(site, checkpoint, tail, checkpoint.policy)
    site.sim.journal.record(
        "controller-restart",
        controller=site.CONTROLLER,
        checkpoint_seq=checkpoint.seq,
        replayed=sum(counts.values()),
        reconciled=checked,
        repushed=repushed,
    )
    return controller


# ----------------------------------------------------------------------
# Hot standby
# ----------------------------------------------------------------------
class StandbyController:
    """A warm replica that detects primary death and takes over.

    Listens on its own channel endpoint for ``ha-checkpoint`` /
    ``ha-delta`` / ``ha-heartbeat`` traffic from the primary's
    :class:`Checkpointer`.  Any primary traffic refreshes the liveness
    clock; when it goes silent for longer than the (seeded-jittered)
    timeout, :meth:`takeover` promotes a fresh controller under the
    primary's endpoint name -- the alerts the cluster's lane held for the
    dead primary deliver, in order, to the new incumbent.
    """

    def __init__(
        self,
        site: "SecuredDeployment",
        heartbeat_timeout: float = FAILOVER_TIMEOUT,
        check_period: float = 0.25,
        on_takeover: Callable[[IoTSecController], None] | None = None,
    ) -> None:
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be positive (got {heartbeat_timeout})")
        self.site = site
        self.sim = site.sim
        self.channel = site.channel
        self.name = site.STANDBY
        self.primary = site.CONTROLLER
        self.on_takeover = on_takeover
        #: Cold fallback: a takeover before the first checkpoint arrives
        #: starts from the policy the site was deployed with.
        self._fallback_policy = policy_to_dict(site.policy)
        self.checkpoint: Checkpoint | None = None
        self.deltas: dict[int, dict[str, Any]] = {}
        self.checkpoints_received = 0
        self.heartbeats_received = 0
        #: Seeded detection jitter: replicas across a fleet must not all
        #: declare the primary dead at the same deterministic instant.
        self.timeout = heartbeat_timeout + random.Random(site.spec.ha_seed).uniform(
            0.0, 0.1 * heartbeat_timeout
        )
        self.last_heartbeat = self.sim.now
        self.active = False
        self.promoted: IoTSecController | None = None
        self.channel.register(self.name, self.on_control_message)
        self._stop_check = self.sim.every(check_period, self._check)

    # ------------------------------------------------------------------
    def on_control_message(self, message: "ControlMessage") -> None:
        if self.active:
            return
        # Any traffic from the primary proves liveness, not just
        # heartbeats -- a primary busy shipping checkpoints is alive.
        self.last_heartbeat = self.sim.now
        if message.kind == "ha-checkpoint":
            checkpoint = Checkpoint.from_dict(message.body["checkpoint"])
            if self.checkpoint is None or checkpoint.seq >= self.checkpoint.seq:
                self.checkpoint = checkpoint
            self.checkpoints_received += 1
            # Deltas at or before the checkpoint are subsumed by it.
            self.deltas = {
                seq: e for seq, e in self.deltas.items() if seq > checkpoint.seq
            }
        elif message.kind == "ha-delta":
            for entry in message.body.get("entries", ()):
                seq = int(entry["seq"])
                if self.checkpoint is None or seq > self.checkpoint.seq:
                    self.deltas[seq] = dict(entry)
        elif message.kind == "ha-heartbeat":
            self.heartbeats_received += 1

    def _check(self) -> None:
        if self.active:
            return
        if self.sim.now - self.last_heartbeat > self.timeout:
            self.takeover("heartbeat-timeout")

    # ------------------------------------------------------------------
    def takeover(self, reason: str) -> IoTSecController:
        """Promote: restore, replay, re-adopt, reconcile -- journaled."""
        if self.active and self.promoted is not None:
            return self.promoted
        self.active = True
        self._stop_check()
        sim = self.sim
        tracer = sim.tracer
        trace = tracer.start_trace()
        sim.journal.record(
            "failover",
            trace=trace,
            standby=self.name,
            reason=reason,
            last_heartbeat=self.last_heartbeat,
            checkpoint_seq=self.checkpoint.seq if self.checkpoint else None,
            deltas=len(self.deltas),
        )
        tracer.push(trace)
        try:
            tail = [
                self.deltas[seq]
                for seq in sorted(self.deltas)
                if self.checkpoint is None or seq > self.checkpoint.seq
            ]
            controller, counts, (checked, repushed) = _revive(
                self.site, self.checkpoint, tail, self._fallback_policy
            )
        finally:
            tracer.pop()
        sim.journal.record(
            "failover-complete",
            trace=trace,
            standby=self.name,
            controller=self.primary,
            blind_s=round(sim.now - self.last_heartbeat, 6),
            replayed_contexts=counts["contexts"],
            replayed_alerts=counts["alerts"],
            replayed_rules=counts["rules"],
            reconciled=checked,
            repushed=repushed,
        )
        self.promoted = controller
        if self.on_takeover is not None:
            self.on_takeover(controller)
        return controller

    def stop(self) -> None:
        """Stand down (tests / controlled shutdown)."""
        self._stop_check()
        self.channel.unregister(self.name)
