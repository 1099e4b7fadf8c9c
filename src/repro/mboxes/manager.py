"""µmbox lifecycle: instantiation, reconfiguration, pooling.

Section 5.2's two data-plane challenges:

1. *Resource management* -- "the actual computation that each
   micro-middlebox performs will be lightweight ... we can create custom
   micro VMs that can be rapidly booted/rebooted".  The manager models a
   ClickOS-like cost structure: cold-boot a micro-VM in ~30 ms, attach a
   pre-booted pooled VM in ~1 ms, reconfigure a live pipeline in ~5 ms
   **without downtime** ("µmboxes must support frequent reconfigurations
   without impacting the availability of IoT devices").

2. *Programming abstractions* -- postures carry declarative
   :class:`MboxSpec` entries; the :data:`MBOX_KINDS` registry materializes
   them into element pipelines.

:class:`MonolithicMiddlebox` is the comparison arm for bench E7: one
enterprise-style appliance whose every policy change is a multi-second
restart during which *all* devices lose protection.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.learning.signatures import AttackSignature
from repro.mboxes.base import Element, Mbox, MboxHost
from repro.mboxes.dnsguard import DnsGuard
from repro.mboxes.elements import (
    CommandFilter,
    CommandWhitelist,
    ContextGate,
    LoginMonitor,
    PacketLogger,
    SourceFilter,
    TelemetryTap,
)
from repro.mboxes.firewall import StatefulFirewall
from repro.mboxes.ids import SignatureIDS
from repro.mboxes.proxy import PasswordProxy
from repro.mboxes.ratelimit import RateLimiter
from repro.policy.posture import MboxSpec, Posture

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator

SignatureProvider = Callable[[str], list[AttackSignature]]


@functools.lru_cache(maxsize=256)
def _thawed(spec: MboxSpec) -> dict[str, Any]:
    """``spec``'s config, thawed once for every element built from it.

    Shared, so read-only: every element constructor copies what it keeps
    (frozensets, ``dict(require)``), and a posture change rebuilds its
    chain from the same few specs over and over.
    """
    return spec.config_dict()


def build_element(
    spec: MboxSpec, signature_provider: SignatureProvider | None
) -> Element:
    config = _thawed(spec)
    kind = spec.kind
    if kind == "password_proxy":
        return PasswordProxy(
            new_password=str(config["new_password"]),
            device_username=str(config.get("device_username", "admin")),
            device_password=str(config.get("device_password", "admin")),
            new_username=config.get("new_username"),
            mgmt_port=int(config.get("mgmt_port", 80)),
        )
    if kind == "signature_ids":
        signatures: list[AttackSignature] = []
        sku = config.get("sku")
        if sku and signature_provider is not None:
            signatures = signature_provider(str(sku))
        return SignatureIDS(
            signatures=signatures,
            drop_on_match=bool(config.get("drop_on_match", True)),
            min_confidence=float(config.get("min_confidence", 0.0)),
        )
    if kind == "stateful_firewall":
        return StatefulFirewall(
            trusted_sources=config.get("trusted_sources", ()),
            open_ports=config.get("open_ports", ()),
            default=str(config.get("default", "drop")),
        )
    if kind == "command_filter":
        return CommandFilter(deny=config.get("deny", ()))
    if kind == "command_whitelist":
        return CommandWhitelist(
            allow=config.get("allow", ()),
            allowed_sources=config.get("allowed_sources", ()),
        )
    if kind == "context_gate":
        return ContextGate(
            commands=config.get("commands", ()),
            require=dict(config.get("require", {})),
        )
    if kind == "source_filter":
        return SourceFilter(allowed_sources=config.get("allowed_sources", ()))
    if kind == "rate_limiter":
        return RateLimiter(
            rate=float(config.get("rate", 1.0)),
            burst=float(config.get("burst", 5.0)),
            match_dport=config.get("match_dport"),
            exempt_sources=tuple(config.get("exempt_sources", ())),
        )
    if kind == "dns_guard":
        return DnsGuard(
            local_sources=config.get("local_sources", ()),
            max_queries_per_second=float(config.get("max_queries_per_second", 5.0)),
        )
    if kind == "telemetry_tap":
        return TelemetryTap()
    if kind == "packet_logger":
        return PacketLogger(
            capture=bool(config.get("capture", False)),
            capture_limit=int(config.get("capture_limit", 1000)),
        )
    if kind == "login_monitor":
        return LoginMonitor(mgmt_port=int(config.get("mgmt_port", 80)))
    if kind == "anomaly_gate":
        from repro.mboxes.anomaly_gate import AnomalyGate

        return AnomalyGate(
            device=str(config.get("device", "")),
            training_window=float(config.get("training_window", 3600.0)),
            context_key=str(config.get("context_key", "env:occupancy")),
            threshold=float(config.get("threshold", 0.05)),
            min_training=int(config.get("min_training", 10)),
            enforce=bool(config.get("enforce", True)),
        )
    raise KeyError(f"unknown µmbox element kind {kind!r}")


def blind_peers(posture: Posture) -> frozenset[str] | None:
    """The device-originated traffic ``posture``'s chain is blind to.

    The intersection of its elements' declarations
    (:attr:`repro.mboxes.base.Element.blind_peers`): the peers a packet
    *from* the device may be addressed to such that no element judges or
    remembers it -- ``frozenset()`` for none (one undeclared module is
    enough), ``None`` for any peer.  A function of the modules alone, so
    the orchestrator derives it once per distinct chain, not per device.
    """
    if not posture.modules:
        return frozenset()  # no chain: nothing is tunnelled, nothing to skip
    blind: frozenset[str] | None = None
    for spec in posture.modules:
        peers = build_element(spec, None).blind_peers
        if peers is not None:
            blind = peers if blind is None else blind & peers
            if not blind:
                break
    return blind


#: The registry of element kinds a posture may reference.
MBOX_KINDS: tuple[str, ...] = (
    "password_proxy",
    "signature_ids",
    "stateful_firewall",
    "command_filter",
    "command_whitelist",
    "context_gate",
    "source_filter",
    "rate_limiter",
    "dns_guard",
    "telemetry_tap",
    "packet_logger",
    "login_monitor",
    "anomaly_gate",
)


@dataclass(slots=True)
class DeploymentRecord:
    """One lifecycle operation, with its latency, for bench E7."""

    device: str
    posture: str
    operation: str  # "boot" | "pool" | "reconfigure" | "teardown"
    requested_at: float
    ready_at: float

    @property
    def latency(self) -> float:
        return self.ready_at - self.requested_at


@dataclass(slots=True)
class OutageRecord:
    """One µmbox crash -> detection -> restart cycle.

    ``detected_at``/``restored_at`` stay ``None`` while the outage is
    still undetected/unrepaired; the mean of ``restored_at - down_at``
    over completed outages is the bench E12 "time to re-enforcement".
    """

    device: str
    mbox: str
    fail_mode: str
    down_at: float
    detected_at: float | None = None
    restored_at: float | None = None

    @property
    def downtime(self) -> float | None:
        if self.restored_at is None:
            return None
        return self.restored_at - self.down_at


class MboxManager:
    """Creates, reconfigures and tears down µmboxes on one host."""

    def __init__(
        self,
        sim: "Simulator",
        host: MboxHost,
        boot_latency: float = 0.030,
        pool_attach_latency: float = 0.001,
        reconfig_latency: float = 0.005,
        pool_size: int = 4,
        capacity: int = 256,
        signature_provider: SignatureProvider | None = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.boot_latency = boot_latency
        self.pool_attach_latency = pool_attach_latency
        self.reconfig_latency = reconfig_latency
        self.capacity = capacity
        self.signature_provider = signature_provider
        self._pool = pool_size  # pre-booted spare micro-VMs
        self._pool_max = pool_size
        self._ids = itertools.count(1)
        self.records: list[DeploymentRecord] = []
        self.boots = 0
        self.pool_hits = 0
        self.reconfigs = 0
        # Health model: crashed instances are found by the periodic health
        # sweep and rebooted; the orchestrator re-pins chains on recovery.
        self.crashes = 0
        self.restarts = 0
        self.outages: list[OutageRecord] = []
        self.health_check_period: float | None = None
        #: Called with the device name once its replacement µmbox is ready
        #: (the orchestrator re-pins the chain here).
        self.on_recovery: Callable[[str], None] | None = None
        self._postures: dict[str, Posture] = {}
        self._restarting: set[str] = set()
        self._stop_health: Callable[[], None] | None = None
        # Observability: lifecycle gauges plus per-operation latency
        # histograms (observed once per deploy -- control-plane frequency).
        metrics = sim.metrics
        self.metric_labels = dict(host.metric_labels)
        metrics.gauge("mbox_active", fn=self.active_count, **self.metric_labels)
        metrics.gauge("mbox_boots", fn=lambda: self.boots, **self.metric_labels)
        metrics.gauge("mbox_pool_hits", fn=lambda: self.pool_hits, **self.metric_labels)
        metrics.gauge("mbox_reconfigs", fn=lambda: self.reconfigs, **self.metric_labels)
        metrics.gauge("mbox_pool_free", fn=lambda: self._pool, **self.metric_labels)
        metrics.gauge("mbox_crashes", fn=lambda: self.crashes, **self.metric_labels)
        metrics.gauge("mbox_restarts", fn=lambda: self.restarts, **self.metric_labels)
        metrics.gauge("mbox_down", fn=self.down_count, **self.metric_labels)
        metrics.gauge("mbox_outages", fn=lambda: len(self.open_outages()), **self.metric_labels)
        metrics.gauge(
            "mbox_fail_open_outages",
            fn=lambda: sum(o.fail_mode == "open" for o in self.open_outages()),
            **self.metric_labels,
        )
        self._deploy_latency = {
            operation: metrics.histogram(
                "mbox_deploy_latency", operation=operation, **self.metric_labels
            )
            for operation in ("boot", "pool", "reconfigure")
        }

    # ------------------------------------------------------------------
    def active_count(self) -> int:
        return len(self.host.mboxes)

    def _elements_for(self, posture: Posture) -> list[Element]:
        return [
            build_element(spec, self.signature_provider) for spec in posture.modules
        ]

    def deploy(self, device: str, posture: Posture) -> DeploymentRecord:
        """Give ``device`` the µmbox its posture prescribes.

        Reconfiguration of an existing µmbox is in-place and keeps the old
        pipeline serving until the new one is loaded (no downtime); fresh
        deployments come from the pool when possible, else cold-boot.
        """
        now = self.sim.now
        existing = self.host.mboxes.get(device)
        elements = self._elements_for(posture)
        self._postures[device] = posture

        if existing is not None:
            self.reconfigs += 1
            ready_at = now + self.reconfig_latency

            def swap() -> None:
                existing.reconfigure(elements)
                existing.kind = posture.name
                existing.fail_mode = posture.failure_mode()

            self.sim.schedule(self.reconfig_latency, swap)
            record = DeploymentRecord(device, posture.name, "reconfigure", now, ready_at)
            self.records.append(record)
            self._deploy_latency["reconfigure"].observe(record.latency)
            return record

        if self.active_count() >= self.capacity:
            raise RuntimeError(
                f"µmbox capacity exhausted ({self.capacity}); "
                "add cluster machines or collapse postures"
            )

        mbox = Mbox(
            name=f"mbox-{next(self._ids)}",
            device=device,
            elements=elements,
            kind=posture.name,
            fail_mode=posture.failure_mode(),
        )
        if self._pool > 0:
            self._pool -= 1
            self.pool_hits += 1
            latency = self.pool_attach_latency
            operation = "pool"
            # Replenish the pool in the background (boot a fresh spare).
            self.sim.schedule(self.boot_latency, self._replenish)
        else:
            self.boots += 1
            latency = self.boot_latency
            operation = "boot"

        mbox.ready = False
        self.host.bind(device, mbox)
        self.sim.schedule(latency, self.host.mark_ready, mbox)
        record = DeploymentRecord(device, posture.name, operation, now, now + latency)
        self.records.append(record)
        self._deploy_latency[operation].observe(record.latency)
        return record

    def _replenish(self) -> None:
        if self._pool < self._pool_max:
            self._pool += 1

    def teardown(self, device: str) -> None:
        mbox = self.host.mboxes.get(device)
        if mbox is not None:
            self.host.unbind(device)
            self._postures.pop(device, None)
            self._restarting.discard(device)
            if mbox.down:
                # The crashed instance is gone, and its outage with it; a
                # restart still booting for it finds it unbound and stops.
                outage = self._outage_for(device)
                if outage is not None and outage.restored_at is None:
                    outage.restored_at = self.sim.now
            self.records.append(
                DeploymentRecord(device, "-", "teardown", self.sim.now, self.sim.now)
            )
            # The freed micro-VM rejoins the pool after a reset cycle.
            self.sim.schedule(self.pool_attach_latency, self._replenish)

    # ------------------------------------------------------------------
    # Health model: crash, detect, restart, recover
    # ------------------------------------------------------------------
    def down_count(self) -> int:
        return sum(1 for mbox in self.host.mboxes.values() if mbox.down)

    def open_outages(self) -> list[OutageRecord]:
        """Outages not yet restored (the fleet health probe's signal)."""
        return [record for record in self.outages if record.restored_at is None]

    def posture_for(self, device: str) -> Posture | None:
        """The posture the device's µmbox is currently built from."""
        return self._postures.get(device)

    def crash(self, device: str, reason: str = "fault") -> bool:
        """Kill the device's µmbox instance (fault injection / chaos).

        The instance stays bound but ``down``: the host degrades its
        traffic per the posture's fail mode until the next health sweep
        notices and reboots a replacement.  Returns False when the device
        has no instance (or it is already down).
        """
        mbox = self.host.mboxes.get(device)
        if mbox is None or mbox.down:
            return False
        mbox.down = True
        self.crashes += 1
        self.outages.append(
            OutageRecord(
                device=device,
                mbox=mbox.name,
                fail_mode=mbox.fail_mode,
                down_at=self.sim.now,
            )
        )
        self.sim.journal.record(
            "mbox-crash",
            device=device,
            mbox=mbox.name,
            fail_mode=mbox.fail_mode,
            reason=reason,
        )
        return True

    def start_health_checks(self, period: float = 1.0) -> Callable[[], None]:
        """Sweep every instance every ``period`` seconds; reboot the dead.

        Detection is *polled*, not instantaneous -- a crashed µmbox stays
        down (degrading per its fail mode) until the sweep after the
        crash, which bounds the exposure window at roughly
        ``period + boot_latency``.  Returns (and remembers) the stop
        callable.
        """
        if self._stop_health is not None:
            self._stop_health()
        self.health_check_period = period
        self._stop_health = self.sim.every(period, self._health_sweep)
        return self._stop_health

    def _outage_for(self, device: str) -> OutageRecord | None:
        for record in reversed(self.outages):
            if record.device == device:
                return record
        return None

    def _health_sweep(self) -> None:
        for device, mbox in list(self.host.mboxes.items()):
            if mbox.down and device not in self._restarting:
                self._restart(device)
        # The sweep doubles as the durable stream's observation pulse:
        # while a telemetry backlog exists (partitioned controller), the
        # stream journals its depth at a rate-limited cadence so incident
        # timelines span the outage instead of going dark.
        stream = self.host.stream
        if stream is not None:
            stream.heartbeat()

    def _restart(self, device: str) -> None:
        """Cold-boot a replacement micro-VM for a crashed instance.

        The replacement binds only over the instance it replaces: a
        teardown (and any redeploy) while it boots leaves it unbound.
        """
        posture = self._postures.get(device)
        if posture is None:
            return
        crashed = self.host.mboxes[device]
        self._restarting.add(device)
        outage = self._outage_for(device)
        if outage is not None and outage.detected_at is None:
            outage.detected_at = self.sim.now
        self.restarts += 1
        now = self.sim.now
        self.sim.journal.record(
            "mbox-restart",
            device=device,
            posture=posture.name,
            ready_at=now + self.boot_latency,
        )

        def come_up() -> None:
            if self.host.mboxes.get(device) is not crashed:
                return  # torn down (perhaps redeployed) while rebooting
            self._restarting.discard(device)
            current = self._postures[device]
            replacement = Mbox(
                name=f"mbox-{next(self._ids)}",
                device=device,
                elements=self._elements_for(current),
                kind=current.name,
                fail_mode=current.failure_mode(),
            )
            self.host.bind(device, replacement)
            record = self._outage_for(device)
            if record is not None and record.restored_at is None:
                record.restored_at = self.sim.now
            self.sim.journal.record(
                "mbox-recovered",
                device=device,
                mbox=replacement.name,
                posture=current.name,
                downtime=(record.downtime if record is not None else None),
            )
            if self.on_recovery is not None:
                self.on_recovery(device)

        self.boots += 1
        record = DeploymentRecord(
            device, posture.name, "boot", now, now + self.boot_latency
        )
        self.records.append(record)
        self._deploy_latency["boot"].observe(record.latency)
        self.sim.schedule(self.boot_latency, come_up)

    # ------------------------------------------------------------------
    def latency_stats(self) -> dict[str, list[float]]:
        stats: dict[str, list[float]] = {}
        for record in self.records:
            stats.setdefault(record.operation, []).append(record.latency)
        return stats


class MonolithicMiddlebox:
    """The enterprise-appliance baseline for bench E7.

    One box filters for every device; any policy change is a restart of
    ``restart_latency`` seconds during which nothing is protected.  The
    class only models the control-plane cost -- the point of E7 is the
    availability gap, not packet processing.
    """

    def __init__(self, sim: "Simulator", restart_latency: float = 5.0) -> None:
        self.sim = sim
        self.restart_latency = restart_latency
        self.ready = True
        self.config_version = 0
        self.downtime_total = 0.0
        self.restarts = 0
        self._down_since: float | None = None
        self.records: list[DeploymentRecord] = []

    def apply_config(self, postures: dict[str, Posture]) -> DeploymentRecord:
        """Any change = full restart; overlapping changes extend downtime."""
        now = self.sim.now
        self.restarts += 1
        self.config_version += 1
        version = self.config_version
        if self.ready:
            self.ready = False
            self._down_since = now

        def come_up() -> None:
            if self.config_version == version:  # no newer restart pending
                self.ready = True
                if self._down_since is not None:
                    self.downtime_total += self.sim.now - self._down_since
                    self._down_since = None

        self.sim.schedule(self.restart_latency, come_up)
        record = DeploymentRecord(
            device="*",
            posture=f"config-v{version}",
            operation="restart",
            requested_at=now,
            ready_at=now + self.restart_latency,
        )
        self.records.append(record)
        return record
