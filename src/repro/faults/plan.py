"""Declarative fault plans.

A :class:`FaultPlan` is a schedule of infrastructure faults -- link flaps,
control-channel partitions, µmbox crashes -- expressed in simulated time
and applied to a :class:`~repro.core.deployment.SecuredDeployment`.  Plans
are plain data (``as_dict``/``from_dict`` round-trip through JSON), so a
chaos experiment is reviewable and replayable: the same plan against the
same seed produces the same run.

Fault kinds and their ``target`` syntax:

================  ====================================  =======================
kind              target                                duration
================  ====================================  =======================
link-flap         ``"a:b"`` (link endpoints)            seconds down, then up
partition         endpoint name, or ``"*"`` for all     seconds unreachable
mbox-crash        device name                           ignored (recovery is
                                                        the health loop's job)
controller-crash  ``"controller"`` (informational)      ignored (recovery is
                                                        failover/restart)
alert-storm       device name, or ``"*"`` for all       seconds of flooding at
                                                        ``intensity`` alerts/s
================  ====================================  =======================

Every injected fault is journaled (kind ``"fault"``) so incident
reconstruction shows *why* a device's µmbox died or its alerts stalled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import SecuredDeployment

FAULT_KINDS = (
    "link-flap",
    "partition",
    "mbox-crash",
    "controller-crash",
    "alert-storm",
)

#: Default alert-storm rate when an event does not set ``intensity``.
DEFAULT_STORM_RATE = 200.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault."""

    at: float
    kind: str
    target: str
    duration: float = 0.0
    #: Alert-storm rate in alerts/second (0 = :data:`DEFAULT_STORM_RATE`);
    #: meaningless for other kinds.
    intensity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (know {FAULT_KINDS})")
        if self.at < 0:
            raise ValueError(f"fault time must be >= 0 (got {self.at})")
        if self.duration < 0:
            raise ValueError(f"fault duration must be >= 0 (got {self.duration})")
        if self.intensity < 0:
            raise ValueError(f"fault intensity must be >= 0 (got {self.intensity})")
        if not self.target:
            raise ValueError("fault target must be non-empty")

    def as_dict(self) -> dict[str, Any]:
        out = {
            "at": self.at,
            "kind": self.kind,
            "target": self.target,
            "duration": self.duration,
        }
        # Omitted when unset so pre-existing plan JSON round-trips unchanged.
        if self.intensity:
            out["intensity"] = self.intensity
        return out


def long_partition_plan(
    start: float = 60.0, hours: float = 2.5, endpoints: str = "*"
) -> "FaultPlan":
    """A multi-hour control-plane blackout (the E14 durability scenario).

    One partition window of ``hours`` simulated hours starting at
    ``start``: the outage a durable telemetry stream must ride out with
    zero loss at bounded memory.  ``endpoints`` narrows the partition
    (e.g. ``"controller"`` blocks only controller-bound traffic);
    the default ``"*"`` severs the whole control channel.
    """
    if hours <= 0:
        raise ValueError(f"hours must be positive (got {hours})")
    return FaultPlan(
        [
            FaultEvent(
                at=start,
                kind="partition",
                target=endpoints,
                duration=hours * 3600.0,
            )
        ]
    )


def inject_alerts(
    dep: "SecuredDeployment",
    sender: str,
    rate: float,
    start: float,
    end: float,
    alert: Callable[[int], dict[str, Any]],
) -> None:
    """Send the controller ``alert(n)`` (n = 1, 2, ...) from ``sender`` at
    ``rate`` alerts/second over ``[start, end)``."""
    sim = dep.sim
    period = 1.0 / rate
    sent = 0

    def burst() -> None:
        nonlocal sent
        sent += 1
        dep.channel.send(sender, dep.CONTROLLER, "alert", alert(sent))
        if sim.now + period < end:
            sim.schedule(period, burst)

    sim.schedule_at(start, burst)


class FaultPlan:
    """An ordered schedule of :class:`FaultEvent`, applicable to a site."""

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(events, key=lambda e: (e.at, e.kind, e.target))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def horizon(self) -> float:
        """The simulated time by which every fault has fired and healed."""
        return max((e.at + e.duration for e in self.events), default=0.0)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        return {"events": [e.as_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from plain data, rejecting malformed events.

        Any unknown kind, missing field, or unparseable window raises
        :class:`ValueError` naming the offending event -- a chaos plan
        must fail loudly at parse time, not traceback mid-run.
        """
        if not isinstance(data, Mapping):
            raise ValueError(
                f"fault plan must be an object with an 'events' list "
                f"(got {type(data).__name__})"
            )
        events = data.get("events", ())
        if isinstance(events, (str, Mapping)) or not isinstance(events, Iterable):
            raise ValueError("fault plan 'events' must be a list of event objects")
        parsed: list[FaultEvent] = []
        for i, e in enumerate(events):
            try:
                parsed.append(
                    FaultEvent(
                        at=float(e["at"]),
                        kind=str(e["kind"]),
                        target=str(e["target"]),
                        duration=float(e.get("duration", 0.0)),
                        intensity=float(e.get("intensity", 0.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                detail = (
                    f"missing field {exc}" if isinstance(exc, KeyError) else exc
                )
                raise ValueError(f"fault event #{i} ({e!r}): {detail}") from exc
        return cls(parsed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a JSON plan document; all failures become ValueError."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"fault plan is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    def apply(self, dep: "SecuredDeployment") -> int:
        """Schedule every fault onto the deployment's simulator.

        Partition windows are installed on the control channel's fault
        model up front (they are declarative, keyed on sim-time); link
        flaps and µmbox crashes are scheduled as events.  Returns the
        number of faults armed.  Unknown link/device targets raise --
        a chaos plan that silently does nothing proves nothing.
        """
        sim = dep.sim
        for event in self.events:
            if event.kind == "partition":
                endpoints = None if event.target == "*" else (event.target,)
                dep.channel.partition(
                    event.at, event.at + event.duration, endpoints
                )
            elif event.kind == "link-flap":
                link = self._find_link(dep, event.target)
                sim.schedule_at(event.at, link.fail)
                if event.duration > 0:
                    sim.schedule_at(event.at + event.duration, link.restore)
            elif event.kind == "mbox-crash":
                if event.target not in dep.devices:
                    raise KeyError(f"mbox-crash target {event.target!r} is not a device")
                assert dep.manager is not None, "mbox-crash needs an IoTSec deployment"
                sim.schedule_at(
                    event.at, dep.manager.crash, event.target, "fault-plan"
                )
            elif event.kind == "controller-crash":
                assert dep.spec.with_iotsec, "controller-crash needs an IoTSec deployment"
                sim.schedule_at(event.at, dep.crash_controller)
            elif event.kind == "alert-storm":
                if event.target != "*" and event.target not in dep.devices:
                    raise KeyError(
                        f"alert-storm target {event.target!r} is not a device"
                    )
                self._start_storm(dep, event)
        # One journal record per fault at its fire time, with full detail.
        for event in self.events:
            device = event.target if event.kind == "mbox-crash" else ""

            def journal(e: FaultEvent = event, device: str = device) -> None:
                sim.journal.record(
                    "fault",
                    device=device,
                    fault=e.kind,
                    target=e.target,
                    duration=e.duration,
                )

            sim.schedule_at(event.at, journal)
        return len(self.events)

    @staticmethod
    def _start_storm(dep: "SecuredDeployment", event: FaultEvent) -> None:
        """Arm an alert flood at the controller's ingest path.

        The storm models a compromised fleet (or buggy firmware) spraying
        ``storm`` alerts, a kind no escalation rule names, at ``intensity``
        alerts/second over the event's window, round-robin across the
        target devices.  It rides the ordinary control channel, so it
        competes with real alerts exactly the way the priority ingest
        queue is designed to arbitrate.
        """
        targets = (
            sorted(dep.devices) if event.target == "*" else [event.target]
        )
        if not targets:
            return
        inject_alerts(
            dep,
            "storm",
            event.intensity or DEFAULT_STORM_RATE,
            event.at,
            event.at + event.duration,
            lambda n: {
                "device": targets[(n - 1) % len(targets)],
                "kind": "storm",
                "detail": {"storm": True, "n": n},
            },
        )

    @staticmethod
    def _find_link(dep: "SecuredDeployment", target: str):
        a, __, b = target.partition(":")
        if not b:
            raise ValueError(f"link-flap target must be 'a:b' (got {target!r})")
        for link in dep.topology.links:
            if {link.a.name, link.b.name} == {a, b}:
                return link
        raise KeyError(f"no link {a!r}<->{b!r} in the topology")

    def __repr__(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))
        return f"FaultPlan({len(self.events)} events: {counts or 'empty'})"
