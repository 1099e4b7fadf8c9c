"""Declarative multi-stage attack campaigns.

The :class:`~repro.faults.plan.FaultPlan` idiom extended from
infrastructure faults to full adversarial *campaigns*: a
:class:`Campaign` is plain data (``as_dict``/``from_dict``/``to_json``
round-trip) describing named stages -- precondition, trigger time,
payload -- with explicit dependencies and seeded timing jitter, executed
against a live :class:`~repro.core.deployment.SecuredDeployment` by a
:class:`CampaignRunner`.

Stage payload kinds:

================  =====================================================
kind              payload (``params``)
================  =====================================================
exploit           ``exploit`` (a :data:`~repro.attacks.exploits.EXPLOITS`
                  name) + its launch kwargs; ``target`` names the victim
command           raw control traffic: ``command`` plus optional
                  ``dport``/``count``/``period``/``use_session``
login             a management-login wave: ``username``/``password`` plus
                  optional ``count``/``period`` (drives the controller's
                  login-attempt escalation window)
fault             one :class:`~repro.faults.plan.FaultEvent` fired now:
                  ``fault`` (a :data:`~repro.faults.plan.FAULT_KINDS`
                  member), ``target``, optional ``duration``/``intensity``
routing-attack    compromise a switch (:mod:`repro.netsim.routing_attacks`):
                  ``mode``, optional ``switch``/``duration``/``drop_prob``
env-set           physical-world manipulation: ``variable``, ``value``
================  =====================================================

Preconditions gate a stage on the world state at fire time (attacker
loot or session, device state, environment level); stage dependencies
gate on earlier stages having executed successfully.  A stage whose gate
fails is journaled as skipped -- campaigns degrade, they do not crash.

Campaign classes (:data:`CAMPAIGN_CLASSES`) group the library for the
per-class scorecard: detection precision/recall, time-to-containment,
exposure windows, and graceful-degradation verdicts, folded into the
health/SLO plane via :func:`attach_campaign_slos` so a containment
breach surfaces as a burn-rate breach rather than a silent miss.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.attacks.exploits import EXPLOITS
from repro.devices import protocol
from repro.environment.variables import DiscreteVariable
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan
from repro.mboxes.base import SOURCE_FORGERY
from repro.netsim.routing_attacks import ROUTING_ATTACK_KINDS, RoutingAttack

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment
    from repro.obs.health import HealthPlane
    from repro.obs.journal import Journal

__all__ = [
    "CAMPAIGN_CLASSES",
    "STAGE_KINDS",
    "PRECONDITION_KINDS",
    "CampaignStage",
    "Campaign",
    "StageResult",
    "CampaignRunner",
    "ContainmentTracker",
    "attach_campaign_slos",
    "score_campaign",
    "journal_digest",
]

#: The four campaign classes of the standing corpus.
CAMPAIGN_CLASSES = (
    "single-flaw",
    "lateral-movement",
    "fabric-degradation",
    "automation-abuse",
)

STAGE_KINDS = ("exploit", "command", "login", "fault", "routing-attack", "env-set")

PRECONDITION_KINDS = ("loot", "session", "device-state", "env-level")

#: Required ``params`` keys per stage kind (validated at parse time).
_REQUIRED_PARAMS: dict[str, tuple[str, ...]] = {
    "exploit": ("exploit",),
    "command": ("command",),
    "login": ("username", "password"),
    "fault": ("fault", "target"),
    "routing-attack": ("mode",),
    "env-set": ("variable", "value"),
}

_REQUIRED_PRECONDITION: dict[str, tuple[str, ...]] = {
    "loot": ("target",),
    "session": ("target",),
    "device-state": ("device", "state"),
    "env-level": ("variable", "level"),
}

#: Default containment deadline (seconds after a target's first attack
#: step before an uncontained target counts as a breach).
DEFAULT_DEADLINE = 15.0


@dataclass(frozen=True)
class CampaignStage:
    """One named stage: precondition -> trigger time -> payload."""

    name: str
    at: float
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    #: The device this stage attacks ("" for infrastructure stages);
    #: ground truth for the detection/containment scorecard.
    target: str = ""
    #: Seeded uniform jitter bound added to ``at`` by the runner.
    jitter: float = 0.0
    depends_on: tuple[str, ...] = ()
    precondition: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {self.kind!r} (know {STAGE_KINDS})")
        if self.at < 0:
            raise ValueError(f"stage time must be >= 0 (got {self.at})")
        if self.jitter < 0:
            raise ValueError(f"stage jitter must be >= 0 (got {self.jitter})")
        if not isinstance(self.params, Mapping):
            raise ValueError(f"stage params must be an object (got {self.params!r})")
        for key in _REQUIRED_PARAMS[self.kind]:
            if key not in self.params:
                raise ValueError(f"{self.kind} stage needs params[{key!r}]")
        if self.kind == "exploit":
            exploit = self.params["exploit"]
            if exploit not in EXPLOITS:
                raise ValueError(
                    f"unknown exploit {exploit!r} (know {sorted(EXPLOITS)})"
                )
        if self.kind in ("exploit", "command", "login") and not self.target:
            raise ValueError(f"{self.kind} stage needs a target device")
        if self.kind == "fault" and self.params["fault"] not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.params['fault']!r} (know {FAULT_KINDS})"
            )
        if self.kind == "routing-attack":
            mode = self.params["mode"]
            if mode not in ROUTING_ATTACK_KINDS:
                raise ValueError(
                    f"unknown routing-attack mode {mode!r} (know {ROUTING_ATTACK_KINDS})"
                )
            prob = float(self.params.get("drop_prob", 0.6))
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"drop_prob must be in [0, 1] (got {prob})")
        if self.precondition is not None:
            if not isinstance(self.precondition, Mapping):
                raise ValueError(
                    f"precondition must be an object (got {self.precondition!r})"
                )
            pkind = self.precondition.get("kind")
            if pkind not in PRECONDITION_KINDS:
                raise ValueError(
                    f"unknown precondition kind {pkind!r} (know {PRECONDITION_KINDS})"
                )
            for key in _REQUIRED_PRECONDITION[pkind]:
                if key not in self.precondition:
                    raise ValueError(f"{pkind} precondition needs {key!r}")

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "at": self.at,
            "kind": self.kind,
            "params": dict(self.params),
        }
        # Optional fields are omitted when unset so hand-written campaign
        # JSON round-trips unchanged (the FaultEvent convention).
        if self.target:
            out["target"] = self.target
        if self.jitter:
            out["jitter"] = self.jitter
        if self.depends_on:
            out["depends_on"] = list(self.depends_on)
        if self.precondition is not None:
            out["precondition"] = dict(self.precondition)
        return out


class Campaign:
    """An ordered, named, seeded multi-stage attack scenario."""

    def __init__(
        self,
        name: str,
        campaign_class: str,
        stages: Iterable[CampaignStage] = (),
        description: str = "",
        seed: int = 0,
        horizon: float = 60.0,
        expect_contained: Iterable[str] = (),
        deadline: float = DEFAULT_DEADLINE,
    ) -> None:
        if not name:
            raise ValueError("campaign name must be non-empty")
        if campaign_class not in CAMPAIGN_CLASSES:
            raise ValueError(
                f"unknown campaign class {campaign_class!r} (know {CAMPAIGN_CLASSES})"
            )
        if horizon <= 0:
            raise ValueError(f"horizon must be positive (got {horizon})")
        if deadline <= 0:
            raise ValueError(f"deadline must be positive (got {deadline})")
        self.name = name
        self.campaign_class = campaign_class
        self.stages = tuple(stages)
        self.description = description
        self.seed = int(seed)
        self.horizon = float(horizon)
        self.expect_contained = tuple(expect_contained)
        self.deadline = float(deadline)
        seen: set[str] = set()
        for i, stage in enumerate(self.stages):
            if stage.name in seen:
                raise ValueError(
                    f"campaign stage #{i} ({stage.name!r}): duplicate stage name"
                )
            for dep_name in stage.depends_on:
                if dep_name not in seen:
                    raise ValueError(
                        f"campaign stage #{i} ({stage.name!r}): depends_on "
                        f"{dep_name!r} which is not an earlier stage"
                    )
            seen.add(stage.name)

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Campaign):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    __hash__ = None  # type: ignore[assignment]  # mutable-style container

    def __repr__(self) -> str:
        return (
            f"Campaign({self.name!r}, class={self.campaign_class},"
            f" stages={len(self.stages)})"
        )

    # ------------------------------------------------------------------
    # Round-trip
    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "class": self.campaign_class,
            "seed": self.seed,
            "horizon": self.horizon,
            "stages": [stage.as_dict() for stage in self.stages],
        }
        if self.description:
            out["description"] = self.description
        if self.expect_contained:
            out["expect_contained"] = list(self.expect_contained)
        if self.deadline != DEFAULT_DEADLINE:
            out["deadline"] = self.deadline
        return out

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Campaign":
        """Build a campaign from plain data, naming any offending stage.

        A malformed stage raises :class:`ValueError` identifying it by
        index and name -- campaigns must fail loudly at parse time, not
        traceback mid-run (the :class:`FaultPlan` contract).
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"campaign must be an object with a 'stages' list "
                f"(got {type(data).__name__})"
            )
        raw_stages = data.get("stages", ())
        if isinstance(raw_stages, (str, Mapping)) or not isinstance(
            raw_stages, Iterable
        ):
            raise ValueError("campaign 'stages' must be a list of stage objects")
        stages: list[CampaignStage] = []
        for i, raw in enumerate(raw_stages):
            label = raw.get("name", "?") if isinstance(raw, Mapping) else "?"
            try:
                precondition = raw.get("precondition")
                stages.append(
                    CampaignStage(
                        name=str(raw["name"]),
                        at=float(raw["at"]),
                        kind=str(raw["kind"]),
                        params=dict(raw.get("params", {})),
                        target=str(raw.get("target", "")),
                        jitter=float(raw.get("jitter", 0.0)),
                        depends_on=tuple(
                            str(d) for d in raw.get("depends_on", ())
                        ),
                        precondition=(
                            dict(precondition) if precondition is not None else None
                        ),
                    )
                )
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(
                    f"campaign stage #{i} ({label!r}): {detail}"
                ) from exc
        try:
            return cls(
                name=str(data["name"]),
                campaign_class=str(data.get("class", "")),
                stages=stages,
                description=str(data.get("description", "")),
                seed=int(data.get("seed", 0)),
                horizon=float(data.get("horizon", 60.0)),
                expect_contained=tuple(
                    str(d) for d in data.get("expect_contained", ())
                ),
                deadline=float(data.get("deadline", DEFAULT_DEADLINE)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"campaign {data.get('name', '?')!r}: {detail}") from exc

    @classmethod
    def from_json(cls, text: str) -> "Campaign":
        """Parse a JSON campaign document; all failures become ValueError."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"campaign is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass
class StageResult:
    """What one stage did when its trigger fired."""

    name: str
    scheduled_at: float
    fired_at: float | None = None
    #: ``ok`` / ``skipped-dep`` / ``skipped-precondition``
    status: str = "pending"
    detail: str = ""


class CampaignRunner:
    """Executes one campaign against a deployment, journaled end to end.

    One seeded RNG (the campaign's seed unless overridden) draws every
    timing jitter and every nested-exploit seed, so the same (campaign,
    seed, deployment) triple replays the identical packet schedule --
    which is what lets the determinism tests demand byte-identical
    journal digests across runs.
    """

    def __init__(
        self,
        campaign: Campaign,
        dep: "SecuredDeployment",
        attacker: Any = None,
        seed: int | None = None,
        tracker: "ContainmentTracker | None" = None,
    ) -> None:
        if attacker is None:
            if not dep.attackers:
                raise ValueError("deployment has no attacker (add_attacker first)")
            attacker = next(iter(dep.attackers.values()))
        self.campaign = campaign
        self.dep = dep
        self.sim = dep.sim
        self.attacker = attacker
        self.seed = campaign.seed if seed is None else seed
        self.rng = random.Random(self.seed)
        self.tracker = tracker
        self.results: dict[str, StageResult] = {}
        self.exploit_results: dict[str, Any] = {}
        self.routing_attacks: list[RoutingAttack] = []
        self.trace_id: int | None = None
        self.started = False

    # ------------------------------------------------------------------
    def start(self) -> "CampaignRunner":
        """Resolve stage times (base + seeded jitter, never before a
        dependency) and arm every stage on the simulator."""
        if self.started:
            return self
        self.started = True
        sim = self.sim
        self.trace_id = sim.tracer.start_trace()
        sim.journal.record(
            "campaign-start",
            trace=self.trace_id,
            campaign=self.campaign.name,
            campaign_class=self.campaign.campaign_class,
            seed=self.seed,
            stages=len(self.campaign.stages),
        )
        for stage in self.campaign.stages:
            fire_at = stage.at
            if stage.jitter:
                fire_at += self.rng.uniform(0.0, stage.jitter)
            # Jitter must not reorder a stage before its dependencies.
            for dep_name in stage.depends_on:
                dep_at = self.results[dep_name].scheduled_at
                if fire_at <= dep_at:
                    fire_at = dep_at + 1e-6
            self.results[stage.name] = StageResult(stage.name, fire_at)
            sim.schedule_at(fire_at, self._fire, stage)
        return self

    # ------------------------------------------------------------------
    def _fire(self, stage: CampaignStage) -> None:
        result = self.results[stage.name]
        result.fired_at = self.sim.now
        status, detail = self._gate(stage)
        if status == "ok":
            try:
                detail = self._execute(stage)
            except (KeyError, TypeError, ValueError) as exc:
                status, detail = "error", str(exc)
        result.status = status
        result.detail = detail
        if (
            status == "ok"
            and self.tracker is not None
            and stage.kind in ("exploit", "command", "login")
            and stage.target
        ):
            self.tracker.note_attack(stage.target, self.sim.now)
        self.sim.journal.record(
            "campaign-stage",
            device=stage.target,
            trace=self.trace_id,
            campaign=self.campaign.name,
            stage=stage.name,
            stage_kind=stage.kind,
            status=status,
            detail=detail,
        )

    def _gate(self, stage: CampaignStage) -> tuple[str, str]:
        for dep_name in stage.depends_on:
            dep_result = self.results.get(dep_name)
            if dep_result is None or dep_result.status != "ok":
                return "skipped-dep", f"dependency {dep_name!r} did not run"
        if stage.precondition is not None:
            ok, why = self._check_precondition(stage.precondition)
            if not ok:
                return "skipped-precondition", why
        return "ok", ""

    def _check_precondition(self, spec: Mapping[str, Any]) -> tuple[bool, str]:
        kind = spec["kind"]
        if kind == "loot":
            target = str(spec["target"])
            if self.attacker.loot_from(target):
                return True, ""
            return False, f"no loot from {target!r}"
        if kind == "session":
            target = str(spec["target"])
            if self.attacker.session_for(target) is not None:
                return True, ""
            return False, f"no session on {target!r}"
        if kind == "device-state":
            device = str(spec["device"])
            want = str(spec["state"])
            node = self.dep.devices.get(device)
            state = getattr(node, "state", None)
            if state == want:
                return True, ""
            return False, f"{device} is {state!r}, wanted {want!r}"
        # env-level
        variable = str(spec["variable"])
        want = str(spec["level"])
        if variable not in self.dep.env.variables:
            return False, f"no environment variable {variable!r}"
        level = self.dep.env.level(variable)
        if level == want:
            return True, ""
        return False, f"{variable} is {level!r}, wanted {want!r}"

    # ------------------------------------------------------------------
    def _execute(self, stage: CampaignStage) -> str:
        if stage.kind == "exploit":
            return self._execute_exploit(stage)
        if stage.kind == "command":
            return self._execute_command(stage)
        if stage.kind == "login":
            return self._execute_login(stage)
        if stage.kind == "fault":
            return self._execute_fault(stage)
        if stage.kind == "routing-attack":
            return self._execute_routing(stage)
        return self._execute_env_set(stage)

    def _execute_exploit(self, stage: CampaignStage) -> str:
        params = dict(stage.params)
        name = params.pop("exploit")
        if name == "dns_reflection_ddos":
            # The exploit's padding RNG derives from the campaign seed so
            # replays regenerate identical query names.
            params.setdefault("rng", random.Random(self.rng.randrange(1 << 30)))
        result = EXPLOITS[name].launch(self.attacker, stage.target, self.sim, **params)
        self.exploit_results[stage.name] = result
        return f"launched {name} against {stage.target}"

    def _wave(self, params: dict[str, Any], fire: Any) -> int:
        """Fire now, then ``count - 1`` more times ``period`` apart (both
        consumed from ``params``, so they never reach the packet)."""
        count = int(params.pop("count", 1))
        period = float(params.pop("period", 0.5))
        fire()
        for i in range(1, count):
            self.sim.schedule(i * period, fire)
        return count

    def _execute_command(self, stage: CampaignStage) -> str:
        params = dict(stage.params)
        cmd = str(params.pop("command"))
        src = str(params.pop("src", self.attacker.name))  # a forged source
        dport = params.pop("dport", None)
        use_session = bool(params.pop("use_session", False))
        target = stage.target
        attacker = self.attacker

        def fire() -> None:
            session = attacker.session_for(target) if use_session else None
            kwargs: dict[str, Any] = dict(params)
            if dport is not None:
                kwargs["dport"] = int(dport)
            attacker.fire_and_forget(
                protocol.command(src, target, cmd, session=session, **kwargs)
            )

        count = self._wave(params, fire)
        return f"{count}x {cmd!r} to {target}"

    def _execute_login(self, stage: CampaignStage) -> str:
        params = dict(stage.params)
        username = str(params["username"])
        password = str(params["password"])
        target = stage.target
        attacker = self.attacker

        def fire() -> None:
            attacker.fire_and_forget(
                protocol.login(attacker.name, target, username, password)
            )

        count = self._wave(params, fire)
        return f"{count}x login {username!r} to {target}"

    def _execute_fault(self, stage: CampaignStage) -> str:
        params = stage.params
        event = FaultEvent(
            at=self.sim.now,
            kind=str(params["fault"]),
            target=str(params["target"]),
            duration=float(params.get("duration", 0.0)),
            intensity=float(params.get("intensity", 0.0)),
        )
        FaultPlan([event]).apply(self.dep)
        return f"{event.kind} on {event.target}"

    def _execute_routing(self, stage: CampaignStage) -> str:
        params = stage.params
        switch_name = str(params.get("switch", "edge"))
        if switch_name == "edge" or switch_name == self.dep.EDGE:
            switch = self.dep.edge
        elif switch_name in self.dep.rooms:
            switch = self.dep.rooms[switch_name]
        else:
            raise KeyError(f"no switch {switch_name!r} in the deployment")
        direct_ports: dict[str, int] = {}
        orch = self.dep.orchestrator
        if orch is not None:
            for device, att in orch.attachments.items():
                if att.switch is switch:
                    direct_ports[device] = att.device_port
        attack = RoutingAttack(
            switch,
            mode=str(params["mode"]),
            seed=self.rng.randrange(1 << 30),
            drop_prob=float(params.get("drop_prob", 0.6)),
            target=str(params.get("target", "")) or (stage.target or None),
            direct_ports=direct_ports,
        )
        attack.engage()
        self.routing_attacks.append(attack)
        duration = float(params.get("duration", 10.0))
        if duration > 0:
            self.sim.schedule(duration, attack.disengage)
        return f"{attack.mode} on {switch.name} for {duration:g}s"

    def _execute_env_set(self, stage: CampaignStage) -> str:
        params = stage.params
        name = str(params["variable"])
        if name not in self.dep.env.variables:
            raise KeyError(f"no environment variable {name!r}")
        variable = self.dep.env.variables[name]
        value = params["value"]
        if isinstance(variable, DiscreteVariable):
            variable.set(str(value))
        else:
            variable.set(float(value), at=self.sim.now)
        return f"{name} <- {value!r}"

    # ------------------------------------------------------------------
    def stage_statuses(self) -> dict[str, str]:
        return {name: result.status for name, result in self.results.items()}

    def first_attacks(self) -> dict[str, float]:
        """Device -> time of its first successfully-fired attack stage."""
        out: dict[str, float] = {}
        for stage in self.campaign.stages:
            result = self.results.get(stage.name)
            if result is None or result.status != "ok" or result.fired_at is None:
                continue
            if stage.kind in ("exploit", "command", "login") and stage.target:
                out.setdefault(stage.target, result.fired_at)
        return out


# ----------------------------------------------------------------------
# Containment tracking + SLO fold-in
# ----------------------------------------------------------------------
class ContainmentTracker:
    """Live per-tick verdict: are the expected targets contained in time?

    Polls the orchestrator's enforcement records; an expected target that
    has been attacked but carries no enforcing posture past the campaign
    deadline produces *miss ticks* -- the error signal the campaign SLO
    burns on, so an uncontained campaign becomes a journaled burn-rate
    breach instead of a silently wrong number at the end of the run.
    """

    def __init__(
        self,
        dep: "SecuredDeployment",
        expected: Iterable[str],
        deadline: float = DEFAULT_DEADLINE,
        period: float = 0.5,
    ) -> None:
        self.dep = dep
        self.expected = tuple(expected)
        self.deadline = deadline
        self.first_attack: dict[str, float] = {}
        self.ok_ticks = 0
        self.miss_ticks = 0
        self.current_misses: tuple[str, ...] = ()
        if self.expected:
            dep.sim.every(period, self._tick)

    def note_attack(self, device: str, at: float) -> None:
        self.first_attack.setdefault(device, at)

    def _tick(self) -> None:
        now = self.dep.sim.now
        orch = self.dep.orchestrator
        misses = tuple(
            device
            for device in self.expected
            if device in self.first_attack
            and now - self.first_attack[device] > self.deadline
            and (orch is None or orch.first_enforced_at(device) is None)
        )
        self.current_misses = misses
        if misses:
            self.miss_ticks += 1
        else:
            self.ok_ticks += 1


def attach_campaign_slos(
    dep: "SecuredDeployment", plane: "HealthPlane", tracker: ContainmentTracker
) -> None:
    """Register the campaign-containment SLO + probe on a health plane.

    Ticks where an expected target sits uncontained past the deadline
    are the SLO's bad events; sustained misses breach the burn-rate
    windows and journal ``slo-breach`` like any other security SLO.
    """
    from repro.obs.health import HEALTH_CRITICAL, Probe
    from repro.obs.slo import SEVERITY_CRITICAL, SLO, Reading

    metrics = dep.sim.metrics
    metrics.gauge("campaign_contained_ticks", fn=lambda: tracker.ok_ticks)
    metrics.gauge("campaign_missed_ticks", fn=lambda: tracker.miss_ticks)
    metrics.gauge("campaign_uncontained", fn=lambda: len(tracker.current_misses))
    plane.add(SLO(
        "campaign-containment", "campaign",
        "expected campaign targets are contained within the deadline on 95% of evaluation ticks",
        Reading("campaign_contained_ticks", bad="campaign_missed_ticks"),
        0.95, 5.0, 30.0, 2.0, 1.0, SEVERITY_CRITICAL,
    ))  # fmt: skip
    plane.add(Probe("campaign", (
        (HEALTH_CRITICAL, Reading("campaign_uncontained", limit=0),
         lambda: f"uncontained past deadline: {', '.join(tracker.current_misses)}"),
    )))  # fmt: skip


# ----------------------------------------------------------------------
# Scorecard
# ----------------------------------------------------------------------
def journal_digest(journal: "Journal") -> str:
    """SHA-256 over the retained journal, canonically serialized.

    The determinism fingerprint: two runs of the same seeded campaign
    must retain byte-identical evidence.  Object-identity fields
    (``pkt``, ``sig_id``, ``msg``) are excluded -- they come from
    process-global counters, so their values depend on how many objects
    earlier runs in the same process created.
    """
    h = hashlib.sha256()
    for entry in journal.entries():
        h.update(
            json.dumps(
                {
                    "seq": entry.seq,
                    "at": entry.at,
                    "kind": entry.kind,
                    "device": entry.device,
                    "fields": {
                        k: v
                        for k, v in entry.fields.items()
                        if k not in ("pkt", "sig_id", "msg")
                    },
                },
                sort_keys=True,
                default=str,
            ).encode("utf-8")
        )
        h.update(b"\n")
    return h.hexdigest()


def score_campaign(
    dep: "SecuredDeployment", runner: CampaignRunner
) -> dict[str, Any]:
    """The per-campaign scorecard (computed after ``dep.run``).

    Fields: detection precision/recall (device granularity, against the
    stages that actually fired), per-target time-to-containment and
    exposure windows, containment misses against ``expect_contained``,
    graceful-degradation verdicts for any µmbox outages, and the routing
    attack totals.
    """
    campaign = runner.campaign
    journal = dep.sim.journal
    horizon = campaign.horizon

    attacked = runner.first_attacks()
    # Indirect victims (pivot/reflection targets) that are managed
    # devices count as attacked from the stage that aimed at them -- once
    # the launchpad relayed it (the exploit's ``pivoted`` reply): a pivot
    # the launchpad's own chain dropped never reached the victim.
    for stage in campaign.stages:
        result = runner.results.get(stage.name)
        if result is None or result.status != "ok" or result.fired_at is None:
            continue
        exploit = runner.exploit_results.get(stage.name)
        if exploit is None or not exploit.succeeded:
            continue
        victim = stage.params.get("victim")
        if isinstance(victim, str) and victim in dep.devices:
            attacked.setdefault(victim, result.fired_at)

    # A forged packet dies at the edge: its alert names the forging host,
    # and detects the attack on the device the packet was sent to.
    alerted = {
        name
        for entry in journal.entries(kind="alert")
        for name in (
            entry.device,
            entry.fields.get("dst") if entry.fields.get("alert_kind") == SOURCE_FORGERY else None,
        )
        if name in dep.devices
    }
    true_positives = attacked.keys() & alerted
    recall = len(true_positives) / len(attacked) if attacked else 1.0
    precision = len(true_positives) / len(alerted) if alerted else 1.0

    contained: dict[str, float] = {}
    if dep.orchestrator is not None:
        for device in dep.devices:
            enforced_at = dep.orchestrator.first_enforced_at(device)
            if enforced_at is not None:
                contained[device] = enforced_at

    ttc: dict[str, float] = {}
    exposure: dict[str, float] = {}
    misses: list[str] = []
    for device in campaign.expect_contained:
        first = attacked.get(device)
        if first is None:
            # The attack stage never fired: nothing to contain, but the
            # campaign did not exercise its own expectation -- flag it.
            misses.append(device)
            continue
        contained_at = contained.get(device)
        if contained_at is None:
            misses.append(device)
            exposure[device] = round(horizon - first, 6)
            continue
        # Pinned before the attack even began: zero exposure window.
        window = max(0.0, contained_at - first)
        ttc[device] = round(window, 6)
        exposure[device] = round(window, 6)

    outages = list(dep.manager.outages) if dep.manager is not None else []
    repinned = {
        entry.device for entry in journal.entries(kind="chain-repin") if entry.device
    }
    needs_repin = set()
    if dep.orchestrator is not None:
        for outage in outages:
            if outage.restored_at is None:
                continue
            posture = dep.orchestrator.current.get(outage.device)
            if posture is not None and not posture.is_permissive:
                needs_repin.add(outage.device)
    fail_open_passes = dep.cluster.fail_open_passes if dep.cluster else 0
    down_drops = dep.cluster.down_drops if dep.cluster else 0
    graceful = {
        # fail-open passes only ever come from postures that *chose*
        # fail-open degradation; an enforcing posture must not leak.
        "fail_open_only_where_allowed": (
            fail_open_passes == 0 or any(o.fail_mode == "open" for o in outages)
        ),
        "fail_closed_drops": down_drops,
        "repinned_after_recovery": needs_repin <= repinned,
        "outages": len(outages),
        "recovered": sum(1 for o in outages if o.restored_at is not None),
    }
    graceful["ok"] = bool(
        graceful["fail_open_only_where_allowed"]
        and graceful["repinned_after_recovery"]
    )

    routing = [attack.stats() for attack in runner.routing_attacks]
    statuses = runner.stage_statuses()
    return {
        "campaign": campaign.name,
        "class": campaign.campaign_class,
        "seed": runner.seed,
        "horizon_s": horizon,
        "stages": len(campaign.stages),
        "stages_ok": sum(1 for s in statuses.values() if s == "ok"),
        "stage_statuses": statuses,
        "attacked": sorted(attacked),
        "alerted": sorted(alerted),
        "detection_precision": round(precision, 6),
        "detection_recall": round(recall, 6),
        "contained": {d: round(t, 6) for d, t in sorted(contained.items())},
        "containment_misses": sorted(misses),
        "time_to_containment_s": ttc,
        "mean_ttc_s": (
            round(sum(ttc.values()) / len(ttc), 6) if ttc else None
        ),
        "exposure_s": exposure,
        "total_exposure_s": round(sum(exposure.values()), 6),
        "graceful_degradation": graceful,
        "routing": routing,
        "fabric_degraded": any(
            a.sinkholed + a.bypassed > 0 for a in runner.routing_attacks
        ),
        "fail_open_passes": fail_open_passes,
        "down_drops": down_drops,
        "mbox_crashes": dep.manager.crashes if dep.manager else 0,
        "mbox_restarts": dep.manager.restarts if dep.manager else 0,
        "events": dep.sim.events_processed,
    }
