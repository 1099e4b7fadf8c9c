"""Posture orchestration: policy decisions become running defences.

The orchestrator owns the mechanical half of enforcement: given "device D
gets posture P", it (a) deploys/reconfigures the µmbox through the manager
and (b) installs the tunnel and bypass flow rules at the device's edge
switch so D's traffic actually traverses the µmbox.

Flow-rule scheme per secured device (priorities matter):

====  =========================================  =======================
prio  match                                      action
====  =========================================  =======================
 900  dst=D, in_port=cluster_port                controller (reactive fwd)
 890  src=D, in_port=cluster_port                controller (reactive fwd)
 700  src=D[, dst=peer], in_port=device_port     controller (reactive fwd)
 500  dst=D                                      tunnel(mbox, cluster_port)
 500  src=D                                      tunnel(mbox, cluster_port)
====  =========================================  =======================

Inspected packets return from the cluster on ``cluster_port`` and hit the
900/890 bypasses, which is what breaks the re-tunnelling loop.  Device-to-
device traffic is inspected by the *destination's* µmbox (the dst rule is
installed ahead of the src rule at equal priority/specificity).

The 700 rows exist only for a **pinned** device, one per *blind flow* of
its chain.  A chain is blind to a flow when every element declares
(:attr:`repro.mboxes.base.Element.blind_peers`) that it neither judges nor
remembers such a packet: the µmbox would return it untouched, so the edge
hands it straight to the same reactive forwarder inspected packets come
back through -- two hops instead of four, and the destination's µmbox (if
it has one) still sees it, because that forwarder re-tunnels toward an
uninspected secured destination.  The rule names the device's own port, so
a packet forging ``src=D`` from anywhere else still tunnels.  Pinned-only
because a pinned posture is the administrator's vetted resting state that
the policy loop never changes: the rules are static and ride the flow push
``secure()`` makes anyway (``apply_pinned``: the outgoing chain's blind
flows are never installed on the way), and a policy-driven device (whose
chain may be swapped under traffic at any instant) never has one.  They
are withdrawn -- by direct removal in both update modes, since losing one
only sends the packet to the tunnel rule beneath it -- on ``unpin``, on
teardown and *before* a chain that is not blind to them is deployed.
Consistent mode also pushes an epoch for the device on every withdrawal,
because an epoch whose install message is still on the wire at that
instant was built before it and carries the rule.  That leaves one bounded
residual: two administrator actions on one device less than a channel
latency apart, the first granting and the second withdrawing, let the first
epoch flip with the rule and the second remove it that same interval later.
Fail-closed therefore covers what the chain inspects: while a pinned
device's µmbox is down its blind outbound flows keep flowing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.mboxes.manager import MboxManager, blind_peers
from repro.obs import COUNT_BUCKETS
from repro.policy.posture import MboxSpec, Posture
from repro.sdn.flowrule import Action, FlowMatch, FlowRule
from repro.sdn.tunnel import TunnelTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.switch import Switch
    from repro.netsim.simulator import Simulator
    from repro.sdn.consistency import ConsistentUpdater, UpdateReport

#: What a round's flow change gathers per switch name: the rules to
#: install (direct mode) or the devices whose rule groups the switch's one
#: epoch must replace (consistent mode).
Installs = dict[str, tuple["Switch", list[FlowRule]]]
EpochScopes = dict[str, tuple["Switch", list[str]]]

BYPASS_DST_PRIORITY = 900
BYPASS_SRC_PRIORITY = 890
OFFLOAD_PRIORITY = 700
TUNNEL_PRIORITY = 500
RULE_PRIORITIES = (BYPASS_DST_PRIORITY, BYPASS_SRC_PRIORITY, OFFLOAD_PRIORITY, TUNNEL_PRIORITY)

#: The empty blind set: a chain with one undeclared module, and every
#: device that is not pinned.
_NOTHING: frozenset[str] = frozenset()


def _peers_text(blind: frozenset[str] | None) -> str:
    """A blind set as a journal field: ``*`` is any peer."""
    return "*" if blind is None else ",".join(sorted(blind))


def _one_or_all(trace_ids: Sequence[int]) -> int | tuple[int, ...] | None:
    """The ``trace`` of a record that closes these chains: one id stays
    an id, several become a tuple."""
    if len(trace_ids) > 1:
        return tuple(trace_ids)
    return trace_ids[0] if trace_ids else None


@dataclass
class SwitchAttachment:
    """Where one device hangs: its edge switch and the relevant ports."""

    switch: "Switch"
    device_port: int
    cluster_port: int


@dataclass
class OrchestrationRecord:
    device: str
    posture: str
    at: float
    tunnelled: bool


class PostureOrchestrator:
    """Applies posture assignments to the data plane."""

    def __init__(
        self,
        sim: "Simulator",
        manager: MboxManager,
        attachments: dict[str, SwitchAttachment],
        updater: "ConsistentUpdater | None" = None,
    ) -> None:
        self.sim = sim
        self.manager = manager
        self.attachments = dict(attachments)
        #: When set, flow-rule changes go through two-phase consistent
        #: updates (one epoch per touched switch, scoped to the devices
        #: that changed) instead of direct installation -- no packet ever
        #: sees a mix of a device's old and new rules.
        self.updater = updater
        #: Device -> the last epoch that carried its rule group, until that
        #: epoch reports committed.  These ride along with the next epoch
        #: on their switch (``_push_epoch``).
        self._in_flight: dict[str, "UpdateReport"] = {}
        self.tunnels = TunnelTable()
        self.current: dict[str, Posture] = {}
        #: Posture changes made, and per device the instants of those that
        #: enforced (anything stricter than ``allow``/``monitor``), ascending.
        self.applies = 0
        self._enforced_at: dict[str, list[float]] = {}
        #: Devices whose posture an administrator pinned: the policy loop
        #: must not override these (it may still *observe* the device).
        self.pinned: set[str] = set()
        #: Pinned device -> the blind set of its chain whose 700 rules are
        #: (being) installed; absent means none.  ``_blind_by_chain`` holds
        #: the derivation, once per distinct chain however many devices
        #: share it.
        self.offloaded: dict[str, frozenset[str] | None] = {}
        self._blind_by_chain: dict[tuple[MboxSpec, ...], frozenset[str] | None] = {}
        # Observability: actuation gauges plus the per-switch rule batch
        # size distribution (one observation per flow push).
        metrics = sim.metrics
        self.metric_labels = {"orchestrator": metrics.unique("orchestrator")}
        metrics.gauge(
            "orchestrator_applies", fn=lambda: self.applies, **self.metric_labels
        )
        metrics.gauge(
            "orchestrator_tunnelled", fn=lambda: len(self.tunnels), **self.metric_labels
        )
        metrics.gauge(
            "orchestrator_pinned", fn=lambda: len(self.pinned), **self.metric_labels
        )
        self._h_rules_batch = metrics.histogram(
            "flow_rules_per_batch", bounds=COUNT_BUCKETS, **self.metric_labels
        )

    # ------------------------------------------------------------------
    def attach(self, device: str, attachment: SwitchAttachment) -> None:
        self.attachments[device] = attachment

    def posture_of(self, device: str) -> Posture | None:
        return self.current.get(device)

    def first_enforced_at(self, device: str, after: float = 0.0) -> float | None:
        """When ``device`` first received an enforcing posture (anything
        stricter than ``allow``/``monitor``) at or past ``after``; ``None``
        if it never did.  The containment instant every scorecard reads."""
        instants = self._enforced_at.get(device, ())
        i = bisect_left(instants, after)
        return instants[i] if i < len(instants) else None

    def offload_violations(self) -> list[str]:
        """Run-level invariant, checked over a finished (or paused) run:
        every live 700 rule belongs to a pinned device, sits on that
        device's own port, and names a flow its *current* chain declares
        blind.  One line per offending rule; empty when it holds.  Reads
        the tables and derives from the postures afresh, trusting neither
        ``offloaded`` nor the per-chain memo.
        """
        violations = []
        switches = {id(att.switch): att.switch for att in self.attachments.values()}
        for switch in switches.values():
            for rule in switch.flow_table:
                if rule.priority != OFFLOAD_PRIORITY or not switch.is_live(rule):
                    continue
                device, peer = rule.match.src, rule.match.dst
                att = self.attachments.get(device)
                posture = self.current.get(device)
                if att is None or att.switch is not switch or rule.match.in_port != att.device_port:
                    why = "is not on the device's own port"
                elif device not in self.pinned:
                    why = "belongs to an unpinned device"
                elif posture is None:
                    why = "belongs to a device with no posture"
                else:
                    blind = blind_peers(posture)
                    if blind is None or peer in blind:
                        continue
                    why = f"is not blind under {posture.summary()}"
                violations.append(f"{switch.name}: offload {device} -> {peer or '*'} {why}")
        return violations

    # ------------------------------------------------------------------
    def pin(self, device: str) -> None:
        """Mark the device's posture as administratively pinned; a chain
        that is already running has its blind flows offloaded here."""
        self.pinned.add(device)
        self._sync_offload(device, "pin")

    def unpin(self, device: str) -> None:
        """Hand the device back to the policy loop, which may swap its
        chain at any instant: its blind flows return to the tunnel now."""
        self.pinned.discard(device)
        self._sync_offload(device, "unpin")

    def apply_pinned(self, device: str, posture: Posture) -> OrchestrationRecord | None:
        """Administrator action: make ``posture`` effective and pin it, as
        one flow change.  The device counts as pinned while the chain is
        deployed, so the new chain's blind flows ride the push its tunnel
        rules make and the outgoing chain's are never installed; a refused
        deploy leaves the device as unpinned as it was."""
        newly = device not in self.pinned
        self.pinned.add(device)
        try:
            record = self.apply(device, posture)
        except Exception:
            if newly:
                self.pinned.discard(device)
            raise
        if record is None:  # ``posture`` was already running: only the pin is new
            self._sync_offload(device, "pin")
        return record

    def apply(self, device: str, posture: Posture) -> OrchestrationRecord | None:
        """Make ``posture`` effective for ``device``.  Idempotent."""
        records = self.apply_many([(device, posture)])
        return records[0] if records else None

    def apply_many(
        self,
        assignments: list[tuple[str, Posture]],
        traces: dict[str, int] | None = None,
    ) -> list[OrchestrationRecord]:
        """Batched actuation: apply a whole evaluation round's postures.

        Data-plane updates are coalesced per switch: in direct mode every
        switch receives one rule batch; in consistent mode every touched
        switch receives exactly one two-phase epoch, however many of its
        devices changed posture this round, carrying those devices' rule
        groups and no one else's.

        ``traces`` optionally maps devices to causal-trace ids: a traced
        device's ``posture`` entry carries its trace, and its switch's
        ``flow-install`` or ``epoch-commit`` entry carries every trace whose
        flows it pushes.
        """
        traces = traces or {}
        records: list[OrchestrationRecord] = []
        installs: Installs = {}
        epochs: EpochScopes = {}
        #: switch name -> trace ids whose posture change touched its table
        switch_traces: dict[str, list[int]] = {}
        try:
            for device, posture in assignments:
                if self.current.get(device) == posture:
                    continue
                attachment = self.attachments.get(device)
                if attachment is None:
                    raise KeyError(f"no switch attachment registered for {device!r}")
                trace = traces.get(device)
                now = self.sim.now
                flow_change = False
                # Blind flows the new chain does not share leave the fabric
                # before that chain is deployed, never after.
                blind = self._blind_peers(device, posture)
                withdrawn = self._withdraw_offload(device, blind, attachment, epochs)

                if posture.is_permissive:
                    self._remove_tunnel(device, attachment, epochs)
                    self.manager.teardown(device)
                    self.tunnels.unbind(device)
                    ready_at = now
                    operation = "teardown"
                    flow_change = True
                else:
                    deploy = self.manager.deploy(device, posture)
                    mbox_name = self.manager.host.mboxes[device].name
                    granted = self._grant_offload(device, blind)
                    if granted or device not in self.tunnels:
                        self._install(device, attachment, installs, epochs)
                        flow_change = True
                    self.tunnels.bind(device, mbox_name)
                    ready_at = deploy.ready_at
                    operation = deploy.operation

                if trace is not None and flow_change:
                    switch_traces.setdefault(attachment.switch.name, []).append(trace)

                previous = self.current.get(device)
                self.current[device] = posture
                self.sim.journal.record(
                    "posture",
                    device=device,
                    trace=trace,
                    posture=posture.name,
                    summary=posture.summary(),
                    previous=previous.name if previous is not None else "",
                    operation=operation,
                    ready_at=ready_at,
                    **({"withdrawn": withdrawn} if withdrawn else {}),
                    **({"offloaded": _peers_text(blind)} if device in self.offloaded else {}),
                )
                record = OrchestrationRecord(
                    device=device,
                    posture=posture.name,
                    at=self.sim.now,
                    tunnelled=not posture.is_permissive,
                )
                self.applies += 1
                if posture.name not in ("allow", "monitor"):
                    self._enforced_at.setdefault(device, []).append(record.at)
                records.append(record)
        finally:
            # Also when a deploy was refused mid-round: what the round has
            # already withdrawn or deployed must still reach the switches.
            self._push(installs, epochs, switch_traces)
        return records

    def _push(
        self,
        installs: Installs,
        epochs: EpochScopes,
        switch_traces: dict[str, list[int]],
    ) -> None:
        """One flow push per touched switch: a rule batch in direct mode,
        a two-phase epoch in consistent mode."""
        for switch, rules in installs.values():
            switch.install_many(rules)
            self._h_rules_batch.observe(len(rules))
            self.sim.journal.record(
                "flow-install",
                trace=_one_or_all(switch_traces.get(switch.name, ())),
                switch=switch.name,
                rules=len(rules),
            )
        for switch, devices in epochs.values():
            self._push_epoch(switch, devices, switch_traces.get(switch.name, ()))

    # ------------------------------------------------------------------
    def repin(self, device: str) -> bool:
        """Re-pin a device's chain onto its freshly restarted µmbox.

        Called by the manager's recovery path: the replacement instance
        has a new name, so the tunnel binding is refreshed and the
        device's rule group re-pushed (in consistent mode as one epoch of
        that group).  Returns False when the device has no active chain to
        re-pin.
        """
        posture = self.current.get(device)
        mbox = self.manager.host.mboxes.get(device)
        attachment = self.attachments.get(device)
        if posture is None or posture.is_permissive or mbox is None or attachment is None:
            return False
        self.tunnels.bind(device, mbox.name)
        self.sim.journal.record(
            "chain-repin",
            device=device,
            mbox=mbox.name,
            posture=posture.name,
            switch=attachment.switch.name,
        )
        if self.updater is not None:
            self._push_epoch(attachment.switch, [device])
        else:
            # Direct mode: rules are keyed by device/priority, not by mbox
            # instance, so a re-install refreshes them idempotently.
            self._remove_rules(device)
            attachment.switch.install_many(self._device_rules(device, attachment))
        return True

    # ------------------------------------------------------------------
    def _blind_peers(self, device: str, posture: Posture | None) -> frozenset[str] | None:
        """What the edge may offload for ``device`` under ``posture``."""
        if posture is None or device not in self.pinned:
            return _NOTHING
        try:
            return self._blind_by_chain[posture.modules]
        except KeyError:
            blind = self._blind_by_chain[posture.modules] = blind_peers(posture)
            return blind

    def _withdraw_offload(
        self,
        device: str,
        keep: frozenset[str] | None,
        att: SwitchAttachment,
        epochs: EpochScopes,
    ) -> str:
        """Remove the device's 700 rules unless they already cover exactly
        ``keep``; returns what they covered (``""`` when nothing left).

        Removed directly in both update modes: losing one only sends the
        packet to the tunnel rule beneath it.  In consistent mode the
        device is also marked for an epoch, built after this point, to
        replace one still on the wire that was built before it.
        """
        have = self.offloaded.get(device, _NOTHING)
        if have == keep or have == _NOTHING:
            return ""
        del self.offloaded[device]
        self._remove_rules(device, (OFFLOAD_PRIORITY,))
        if self.updater is not None:
            self._mark(device, att, epochs)
        return _peers_text(have)

    def _grant_offload(self, device: str, blind: frozenset[str] | None) -> bool:
        """Record ``blind`` as the device's offloaded set, from which
        ``_offload_rules`` builds; False when there is nothing new."""
        if blind == _NOTHING or self.offloaded.get(device, _NOTHING) == blind:
            return False
        self.offloaded[device] = blind
        return True

    def _sync_offload(self, device: str, operation: str) -> None:
        """Reconcile the device's 700 rules with what its running chain
        and pin state allow, outside a posture change (``pin``/``unpin``)."""
        posture = self.current.get(device)
        attachment = self.attachments.get(device)
        if posture is None or attachment is None:
            return
        installs: Installs = {}
        epochs: EpochScopes = {}
        blind = self._blind_peers(device, posture)
        withdrawn = self._withdraw_offload(device, blind, attachment, epochs)
        if self._grant_offload(device, blind):
            self._install(device, attachment, installs, epochs)
        elif not withdrawn:
            return
        self.sim.journal.record(
            "offload",
            device=device,
            posture=posture.name,
            operation=operation,
            **({"withdrawn": withdrawn} if withdrawn else {}),
            **({"offloaded": _peers_text(blind)} if device in self.offloaded else {}),
        )
        self._push(installs, epochs, {})

    def _device_rules(self, device: str, att: SwitchAttachment) -> list[FlowRule]:
        """The device's rule group.  Every rule is stamped ``owner=device``:
        the group is installed, flipped and removed as one."""
        return [
            # Returned-from-cluster packets go through the controller's
            # forwarder: only it knows whether the *destination's* µmbox has
            # inspected the packet yet (device-to-device traffic must visit
            # both µmboxes; a static forward here would skip the second).
            FlowRule(
                match=FlowMatch(dst=device, in_port=att.cluster_port),
                actions=(Action.controller(),),
                priority=BYPASS_DST_PRIORITY,
                owner=device,
            ),
            FlowRule(
                match=FlowMatch(src=device, in_port=att.cluster_port),
                actions=(Action.controller(),),
                priority=BYPASS_SRC_PRIORITY,
                owner=device,
            ),
            FlowRule(
                match=FlowMatch(dst=device),
                actions=(
                    Action.tunnel(device, att.cluster_port, via=self.manager.host.name),
                ),
                priority=TUNNEL_PRIORITY,
                owner=device,
            ),
            FlowRule(
                match=FlowMatch(src=device),
                actions=(
                    Action.tunnel(device, att.cluster_port, via=self.manager.host.name),
                ),
                priority=TUNNEL_PRIORITY,
                owner=device,
            ),
            *self._offload_rules(device, att),
        ]

    def _offload_rules(self, device: str, att: SwitchAttachment) -> list[FlowRule]:
        """One rule per blind flow of a pinned device's chain, matched on
        the device's own port and handed to the reactive forwarder."""
        blind = self.offloaded.get(device, _NOTHING)
        return [
            FlowRule(
                match=FlowMatch(src=device, dst=peer, in_port=att.device_port),
                actions=(Action.controller(),),
                priority=OFFLOAD_PRIORITY,
                owner=device,
            )
            for peer in ((None,) if blind is None else sorted(blind))
        ]

    def _mark(self, device: str, att: SwitchAttachment, epochs: EpochScopes) -> None:
        """Consistent mode: put the device's rule group in the scope of
        the one epoch its switch gets this round."""
        __, devices = epochs.setdefault(att.switch.name, (att.switch, []))
        if device not in devices:
            devices.append(device)

    def _install(
        self,
        device: str,
        att: SwitchAttachment,
        installs: Installs,
        epochs: EpochScopes,
    ) -> None:
        """Put what the device's table lacks -- everything for a device
        not yet tunnelled, else its newly granted 700 rules -- on the one
        push its switch gets this round (an epoch rebuilds the whole group
        of every device in its scope, so there the device is only marked)."""
        if self.updater is not None:
            self._mark(device, att, epochs)
            return
        rules_of = self._offload_rules if device in self.tunnels else self._device_rules
        __, rules = installs.setdefault(att.switch.name, (att.switch, []))
        rules.extend(rules_of(device, att))

    def _remove_tunnel(self, device: str, att: SwitchAttachment, epochs: EpochScopes) -> None:
        if self.updater is not None:
            self._mark(device, att, epochs)
            return
        self._remove_rules(device)

    def _remove_rules(
        self, device: str, priorities: tuple[int, ...] = RULE_PRIORITIES
    ) -> None:
        """Drop rules of the device's group, visiting that group only."""
        self.attachments[device].switch.remove_where(
            lambda r: r.priority in priorities, owners=(device,)
        )

    def _push_epoch(
        self, switch: "Switch", devices: Iterable[str], trace_ids: Sequence[int] = ()
    ) -> None:
        """Consistent mode: one two-phase epoch on ``switch`` that replaces
        the rule groups of ``devices`` (fresh FlowRule objects -- the
        updater stamps version tags on them) and leaves every other group
        alone.  Called after the whole round's tunnel bindings settle: a
        device that left the tunnel set is in scope with no rules, which
        is how its group goes.

        Every device of this switch whose last epoch has not reported
        committed rides along, rebuilt from what it should run now.  An
        epoch on the wire is therefore a subset of the next one -- however
        their flips interleave, the newest version a device's group was
        built for wins it -- and a group whose flow-mod the channel gave
        up on is healed by the next push on the switch instead of staying
        half-installed until that device happens to change again.
        """
        assert self.updater is not None
        scope = dict.fromkeys(devices)
        for device in self._in_flight:
            if self.attachments[device].switch is switch:
                scope[device] = None
        desired: list[FlowRule] = []
        for device in scope:
            if device in self.tunnels:
                desired.extend(self._device_rules(device, self.attachments[device]))
        self._h_rules_batch.observe(len(desired))
        in_flight = self._in_flight

        def on_committed(report: "UpdateReport") -> None:
            for device in scope:
                if in_flight.get(device) is report:
                    del in_flight[device]

        # The epoch's commit record closes these chains: the updater reads
        # them off the active-trace stack when the epoch starts.
        tracer = self.sim.tracer
        tracer.push(_one_or_all(trace_ids))
        try:
            report = self.updater.push_two_phase(
                {switch: desired}, on_committed=on_committed, scope={switch: scope}
            )
        finally:
            tracer.pop()
        for device in scope:
            in_flight[device] = report


# ----------------------------------------------------------------------
# Posture recipes: from a mitigation name (Table 1 / signature
# recommendations) to a concrete posture for a given device.
# ----------------------------------------------------------------------
def build_recommended_posture(
    mitigation: str,
    device: str,
    trusted_sources: tuple[str, ...] = (),
    new_password: str = "S3cure!gateway",
    device_username: str = "admin",
    device_password: str = "admin",
    allowed_commands: tuple[str, ...] = (),
    sku: str | None = None,
) -> Posture:
    """Materialize a mitigation name into a posture for ``device``.

    These are the "customized µmboxes" of section 2.2, one recipe per
    Table 1 flaw class.
    """
    if mitigation == "password_proxy":
        return Posture.make(
            "password_proxy",
            MboxSpec.make(
                "password_proxy",
                new_password=new_password,
                device_username=device_username,
                device_password=device_password,
            ),
            MboxSpec.make("rate_limiter", rate=0.5, burst=3.0, match_dport=80),
            description=f"credential gateway for {device}",
        )
    if mitigation == "stateful_firewall":
        return Posture.make(
            "stateful_firewall",
            MboxSpec.make(
                "stateful_firewall",
                trusted_sources=sorted(trusted_sources),
                open_ports=[],
                default="drop",
            ),
            description=f"default-deny inbound for {device}",
        )
    if mitigation == "command_whitelist":
        return Posture.make(
            "command_whitelist",
            MboxSpec.make(
                "command_whitelist",
                allow=sorted(allowed_commands),
                allowed_sources=sorted(trusted_sources),
            ),
            description=f"actuator command whitelist for {device}",
        )
    if mitigation == "dns_guard":
        return Posture.make(
            "dns_guard",
            MboxSpec.make(
                "dns_guard",
                local_sources=sorted(trusted_sources),
                max_queries_per_second=5.0,
            ),
            description=f"resolver abuse guard for {device}",
        )
    if mitigation == "quarantine":
        return Posture.make(
            "quarantine",
            MboxSpec.make("stateful_firewall", trusted_sources=[], open_ports=[], default="drop"),
            description=f"full isolation of {device}",
        )
    if mitigation == "monitor":
        modules = [
            MboxSpec.make("telemetry_tap"),
            MboxSpec.make("packet_logger"),
            MboxSpec.make("login_monitor"),
        ]
        if sku:
            modules.append(MboxSpec.make("signature_ids", sku=sku, drop_on_match=True))
        return Posture.make("monitor", *modules, description=f"observe {device}")
    raise KeyError(f"unknown mitigation {mitigation!r}")
