"""Consistent flow-table updates.

Section 5.1: "critical state ... that must be handled in a consistent
fashion does change often" in IoT, unlike traditional SDN where topology is
near-static.  We implement the classic two-phase consistent-update protocol
(install the new rule set under a fresh version tag on every switch, wait
for all acknowledgements, then flip each switch's active version, then
garbage-collect the old epoch), plus a cheaper best-effort updater as the
baseline the experiments compare against.

During a two-phase update no packet is ever processed by a mixture of old
and new rules at a single switch: version filtering in
:class:`repro.netsim.switch.Switch` makes the flip atomic per switch.

Because that state changes often, an epoch has a *scope*: the rule groups
(:attr:`repro.sdn.flowrule.FlowRule.owner`) it replaces.  Install, flip
and garbage collection touch those groups only, so re-pinning one device
on a thousand-device switch moves that device's handful of rules, with
the same three channel legs and the same atomic flip.  An epoch with no
scope has every group in scope: the complete table, as before.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Iterable

from repro.sdn.flowrule import FlowRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator
    from repro.netsim.switch import Switch
    from repro.sdn.channel import ControlChannel


@dataclass
class UpdateReport:
    """Outcome of one configuration push."""

    version: int
    started_at: float
    committed_at: float | None = None
    switches: int = 0
    rules_installed: int = 0
    rules_removed: int = 0
    mode: str = "two-phase"

    @property
    def duration(self) -> float | None:
        if self.committed_at is None:
            return None
        return self.committed_at - self.started_at


class ConsistentUpdater:
    """Pushes rule-set epochs, whole-table or scoped, to a set of switches.

    The updater talks to switches through the control channel so that update
    latency is borne by the simulation, not assumed free.  Switch-side
    message handling is done by direct method invocation on delivery (the
    channel models the wire; switch CPUs are not a bottleneck here).
    """

    def __init__(
        self,
        sim: "Simulator",
        channel: "ControlChannel",
        controller_name: str = "controller",
        reliable: bool = False,
    ) -> None:
        self.sim = sim
        self.channel = channel
        self.controller_name = controller_name
        #: When True, install/flip messages ride the channel's lane to each
        #: switch: a dropped flow-mod is re-sent until it lands, in order,
        #: and applies once -- the epoch commits late, never half-applied.
        self.reliable = reliable
        self._versions = itertools.count(1)
        self.reports: list[UpdateReport] = []
        # Observability: epoch counts and the commit-latency distribution
        # (observed once per committed two-phase epoch).
        metrics = sim.metrics
        self.metric_labels = {"updater": metrics.unique(controller_name)}
        metrics.gauge(
            "updater_epochs", fn=lambda: len(self.reports), **self.metric_labels
        )
        self._c_committed = metrics.counter("updater_commits", **self.metric_labels)
        self._h_commit = metrics.histogram("epoch_commit_latency", **self.metric_labels)

    def _send_and_apply(self, switch: "Switch", apply: Callable[[], None]) -> float:
        """Model one control-channel RTT around ``apply`` on the switch.

        The message rides the control channel's RPC path, so the channel's
        fault model (drops, jitter, partitions) applies, and -- with
        ``reliable`` -- so does the lane to the switch: ``apply`` executes
        exactly once, in push order, however often the wire loses it.
        Returns the earliest simulated time at which the switch can have
        applied the change (one-way latency, no faults).
        """
        latency = self.channel.latency_to(switch.name)
        self.channel.call(
            self.controller_name,
            switch.name,
            apply,
            kind="flow-mod",
            reliable=self.reliable,
        )
        return self.sim.now + latency

    def push_two_phase(
        self,
        assignments: dict["Switch", Iterable[FlowRule]],
        on_committed: Callable[[UpdateReport], None] | None = None,
        scope: dict["Switch", Collection[str | None]] | None = None,
    ) -> UpdateReport:
        """Install a new epoch on every switch, then flip atomically.

        ``assignments`` maps each switch to the rules the epoch installs
        there (version tags are stamped here).  ``scope`` maps a switch to
        the owners whose rule groups the epoch replaces: the flip moves
        exactly those groups to the new version and collects their older
        rules, an owner in scope with no rule in the epoch is left with
        none, and the rest of the table is not touched.  A switch without
        a scope has every owner in scope -- its rules are the complete
        table it should run.  Returns the report, which is completed
        (``committed_at`` set) when the flip lands.
        """
        batches = {switch: list(rules) for switch, rules in assignments.items()}
        #: switch -> what follows the version in its flip's two calls:
        #: nothing when every owner is in scope, so an unscoped epoch makes
        #: the same one-argument calls it always made.
        scopes: dict["Switch", tuple[frozenset[str | None], ...]] = {}
        for switch, rules in batches.items():
            if scope is None or switch not in scope:
                scopes[switch] = ()
                continue
            owners = frozenset(scope[switch])
            strays = {rule.owner for rule in rules} - owners
            if strays:
                raise ValueError(
                    f"epoch for {switch.name} carries rules of {sorted(map(str, strays))}, "
                    "outside its scope: they would never be activated"
                )
            scopes[switch] = (owners,)
        version = next(self._versions)
        report = UpdateReport(
            version=version,
            started_at=self.sim.now,
            switches=len(assignments),
        )
        self.reports.append(report)
        # The chains this epoch closes (see ``PostureOrchestrator._push_epoch``).
        trace = self.sim.tracer.current()

        def commit() -> None:
            report.committed_at = self.sim.now
            self._c_committed.inc()
            self._h_commit.observe(report.committed_at - report.started_at)
            self.sim.journal.record(
                "epoch-commit",
                trace=trace,
                version=report.version,
                mode=report.mode,
                switches=report.switches,
                rules_installed=report.rules_installed,
                rules_removed=report.rules_removed,
                duration=report.duration,
            )
            if on_committed:
                on_committed(report)

        if not assignments:
            commit()  # an empty epoch commits on the spot, duration 0.0
            return report

        acks_needed = len(assignments)
        acks = {"n": 0}

        def phase_two() -> None:
            flip_done = {"n": 0}

            def done() -> None:
                flip_done["n"] += 1
                if flip_done["n"] == acks_needed:
                    commit()

            for switch in assignments:

                def make_flip(
                    sw: "Switch" = switch,
                    within: tuple[frozenset[str | None], ...] = scopes[switch],
                ) -> None:
                    # Concurrent pushes may flip out of order: the switch
                    # keeps versions monotone per owner, never stepping one
                    # backwards, and every rule older than its owner's
                    # active epoch goes (including stale epochs that were
                    # superseded before activating).
                    sw.set_active_version(version, *within)
                    report.rules_removed += sw.remove_where(sw.is_superseded, *within)
                    done()

                self._send_and_apply(switch, make_flip)

        def phase_one_ack() -> None:
            acks["n"] += 1
            if acks["n"] == acks_needed:
                phase_two()

        for switch, rules in batches.items():
            for rule in rules:
                rule.version = version
            report.rules_installed += len(rules)

            def make_install(
                sw: "Switch" = switch, rs: list[FlowRule] = rules
            ) -> None:
                sw.install_many(rs)
                # Ack travels back over the channel.
                self.sim.schedule(self.channel.latency_to(sw.name), phase_one_ack)

            self._send_and_apply(switch, make_install)

        return report

    def push_best_effort(
        self, assignments: dict["Switch", Iterable[FlowRule]]
    ) -> UpdateReport:
        """Baseline: install rules immediately with no epoching or barrier.

        Packets in flight can see mixed old/new state -- the inconsistency
        the paper warns about.  Used as the comparison arm in bench E6.
        """
        version = next(self._versions)
        report = UpdateReport(
            version=version,
            started_at=self.sim.now,
            switches=len(assignments),
            mode="best-effort",
        )
        self.reports.append(report)
        for switch, rules in assignments.items():
            materialized = list(rules)
            report.rules_installed += len(materialized)

            def make_install(
                sw: "Switch" = switch, rs: list[FlowRule] = materialized
            ) -> None:
                for r in rs:
                    r.version = None
                sw.install_many(rs)

            self._send_and_apply(switch, make_install)
        # Best effort "commits" as soon as the last install lands.
        max_latency = max(
            (self.channel.latency_to(sw.name) for sw in assignments), default=0.0
        )
        report.committed_at = self.sim.now + max_latency
        self.sim.journal.record(
            "epoch-commit",
            version=report.version,
            mode=report.mode,
            switches=report.switches,
            rules_installed=report.rules_installed,
            duration=report.duration,
        )
        return report
