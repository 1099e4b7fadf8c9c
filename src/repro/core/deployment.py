"""The deployment harness: a complete secured (or unsecured) smart home.

Assembles the Figure 2 architecture end to end: edge switch, security
cluster (:class:`MboxHost` + :class:`MboxManager`), automation hub,
internet uplink, physical environment, devices, and -- when
``with_iotsec`` -- the controller, policy FSM and orchestrator.  With
``with_iotsec=False`` the same home runs "current world" style: all
traffic is forwarded reactively with no interposition, which is every
bench's baseline arm.

A site is described once, by a :class:`SiteSpec`; ``spec.deploy()`` is
the one path from it to a running site.  Build by hand when a home needs
more than a spec says::

    dep = SecuredDeployment.build()          # SiteSpec fields as keywords
    cam = dep.add_device(smart_camera, "cam")
    plug = dep.add_device(smart_plug, "plug", load={"heat_watts": 1500.0})
    attacker = dep.add_attacker()
    dep.finalize()            # builds policy (if none given) + controller
    dep.enforce_baseline()    # monitor posture on every device
    ... launch exploits ...
    dep.run(until=120.0)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.attacks.attacker import Attacker
from repro.core.controller import IoTSecController
from repro.core.ha import Checkpointer, CheckpointStore, StandbyController, restore_controller
from repro.core.overload import IngestConfig
from repro.core.orchestrator import (
    PostureOrchestrator,
    SwitchAttachment,
    build_recommended_posture,
)
from repro.devices.base import IoTDevice
from repro.environment.engine import Environment
from repro.environment.physics import LightProcess, SmokeProcess, ThermalProcess
from repro.mboxes.base import SOURCE_FORGERY, Alert, MboxContext, MboxHost, Verdict
from repro.mboxes.manager import MboxManager
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.obs.stream import VIEW_DELTA
from repro.policy.builder import PolicyBuilder
from repro.policy.context import COMPROMISED, SUSPICIOUS
from repro.policy.fsm import PolicyFSM
from repro.policy.ifttt import AutomationHub
from repro.policy.posture import Posture
from repro.sdn.channel import ControlChannel

if TYPE_CHECKING:  # pragma: no cover
    from repro.learning.repository import CrowdRepository
    from repro.netsim.switch import Switch
    from repro.obs.health import HealthPlane
    from repro.obs.stream import HostStream


def _no_view(key: str) -> None:
    """The view of an alert raised outside any µmbox: nothing."""
    return None


#: One-way latency of a site's control channel (µmbox host, switches and
#: controller are on premises).
CHANNEL_LATENCY = 0.002

#: What each device gets once the controller is up: nothing, the
#: :meth:`~SecuredDeployment.enforce_baseline` postures, or E9's
#: :meth:`~SecuredDeployment.pin_by_flaw` pins.
POSTURE_RULES = ("none", "baseline", "pin-by-flaw")


@dataclass(frozen=True)
class DeviceSpec:
    """One device: ``add_device(factory, name, **options)``."""

    factory: Callable[..., IoTDevice]
    name: str
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class SiteSpec:
    """The one description of a site: frozen, picklable, compared by value.

    Every plane is opt-in, so the default schedule is the bare home's.
    ``reliable_control`` puts alerts and flow-mods on the channel's offset
    lanes, ``consistent_updates`` makes each flow change a two-phase epoch,
    ``health_check_period`` starts the µmbox health sweep, ``ingest`` the
    controller's priority queue, ``durable_telemetry`` the cluster's stream
    lanes, ``checkpointing`` the snapshot loop, ``standby`` (seeded by
    ``ha_seed``) a hot standby and ``health`` the SLO/health plane.

    The fleet is ``devices`` in build order (each starting its telemetry
    as it is added, with ``start_telemetry``), then ``attackers``.
    ``signatures`` (wire dicts) seed the site's cache, as a first
    federation sync would, before ``postures`` (:data:`POSTURE_RULES`)
    runs.
    """

    with_iotsec: bool = True
    consistent_updates: bool = False
    reliable_control: bool = False
    health_check_period: float | None = None
    ingest: IngestConfig | None = None
    durable_telemetry: bool = False
    checkpointing: bool = False
    checkpoint_period: float = 5.0
    standby: bool = False
    ha_seed: int = 0
    health: bool = False
    health_period: float = 5.0
    devices: tuple[DeviceSpec, ...] = ()
    start_telemetry: bool = False
    attackers: tuple[str, ...] = ()
    postures: str = "none"
    signatures: tuple[dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.postures not in POSTURE_RULES:
            raise ValueError(
                f"unknown posture rule {self.postures!r} (choose from {POSTURE_RULES})"
            )
        for name in ("devices", "attackers", "signatures"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def deploy(
        self, sim: Simulator | None = None, policy: PolicyFSM | None = None
    ) -> "SecuredDeployment":
        """Build this site and bring it up, finalized."""
        # Named, not chained: finalizing the unnamed temporary made a 10k-device
        # site's full collections ~2x slower (same objects and journal; CPython 3.11).
        dep = SecuredDeployment(self, sim=sim, policy=policy)
        return dep.finalize()


def default_home_environment(sim: Simulator) -> Environment:
    """The standard simulated home: thermal, smoke, light, occupancy."""
    env = Environment(sim)
    env.add_continuous(
        "temperature",
        initial=21.0,
        thresholds=(10.0, 26.0),
        level_names=("low", "normal", "high"),
        minimum=-30.0,
        maximum=90.0,
    )
    env.add_continuous(
        "smoke",
        initial=0.0,
        thresholds=(0.5,),
        level_names=("clear", "detected"),
        minimum=0.0,
        maximum=10.0,
    )
    env.add_continuous(
        "illuminance",
        initial=0.0,
        thresholds=(100.0,),
        level_names=("dark", "bright"),
        minimum=0.0,
    )
    env.add_discrete("occupancy", ("absent", "present"))
    env.add_discrete("window", ("closed", "open"))
    env.add_discrete("door", ("locked", "unlocked"))
    env.add_process(ThermalProcess(outside=10.0))
    env.add_process(SmokeProcess())
    env.add_process(LightProcess())
    return env


class SecuredDeployment:
    """One smart home/enterprise site, optionally protected by IoTSec.

    The constructor builds ``spec``'s planes and fleet; :meth:`finalize`
    starts the controller, then seeds signatures and applies postures.
    """

    EDGE = "edge"
    CLUSTER = "cluster"
    INTERNET = "internet"
    HUB = "hub"
    CONTROLLER = "controller"
    STANDBY = "standby"

    def __init__(
        self,
        spec: SiteSpec = SiteSpec(),
        sim: Simulator | None = None,
        policy: PolicyFSM | None = None,
    ) -> None:
        self.spec = spec
        self.sim = sim or Simulator()
        self.host_stream: "HostStream | None" = None
        self.checkpoint_store: CheckpointStore | None = None
        self.checkpointer: Checkpointer | None = None
        self.standby_controller: StandbyController | None = None
        self.health_plane: "HealthPlane | None" = None
        self.topology = Topology(self.sim)
        self.policy: PolicyFSM | None = policy

        self.edge = self.topology.add_switch(self.EDGE)
        self.internet = self.topology.add_host(self.INTERNET)
        self.hub = AutomationHub(self.HUB, self.sim)
        self.topology.add(self.hub)
        self.topology.connect(self.edge, self.internet, latency=0.010)
        self.topology.connect(self.edge, self.hub, latency=0.002)

        self.env = default_home_environment(self.sim)
        self.hub.watch_environment(self.env)

        self.devices: dict[str, IoTDevice] = {}
        self.attackers: dict[str, Attacker] = {}
        self.rooms: dict[str, "Switch"] = {}

        self.channel = ControlChannel(self.sim, latency=CHANNEL_LATENCY)
        self.cluster: MboxHost | None = None
        self.manager: MboxManager | None = None
        self.orchestrator: PostureOrchestrator | None = None
        self.controller: IoTSecController | None = None
        self.repository: "CrowdRepository | None" = None

        if spec.with_iotsec:
            self.cluster = MboxHost(
                self.CLUSTER,
                self.sim,
                default_verdict=Verdict.PASS,  # unbound devices flow freely
            )
            self.topology.add(self.cluster)
            self.topology.connect(self.edge, self.cluster, latency=0.001)
            # Source binding: the hub may speak only from its own port, and
            # the controller, which has none, from no port at all.
            self.edge.trunks.add(self.edge.port_to(self.CLUSTER))
            self.edge.on_forgery = self._on_forgery
            self._bind_identity(self.HUB, self.edge, self.edge.port_to(self.HUB))
            self._bind_identity(self.CONTROLLER)
            self.manager = MboxManager(self.sim, self.cluster)
            # Room for one µmbox per device of the fleet, and then some.
            self.manager.capacity = max(self.manager.capacity, len(spec.devices) + 8)
            updater = None
            if spec.consistent_updates:
                from repro.sdn.consistency import ConsistentUpdater

                updater = ConsistentUpdater(
                    self.sim, self.channel, reliable=spec.reliable_control
                )
            self.orchestrator = PostureOrchestrator(
                self.sim, self.manager, {}, updater=updater
            )
        else:
            # "Current world": reactive L2 forwarding, nothing interposed.
            self.edge.packet_in_handler = self._plain_forwarder

        self._finalized = False
        for device in spec.devices:
            added = self.add_device(device.factory, device.name, **device.options)
            if spec.start_telemetry:
                added.start_telemetry()
        for name in spec.attackers:
            self.add_attacker(name)

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sim: Simulator | None = None,
        policy: PolicyFSM | None = None,
        **fields: Any,
    ) -> "SecuredDeployment":
        """The keyword front door: ``fields`` are :class:`SiteSpec`'s."""
        return cls(SiteSpec(**fields), sim=sim, policy=policy)

    def _plain_forwarder(self, switch: Any, packet: Any, in_port: int) -> None:
        port = self.topology.next_hop_port(switch.name, packet.dst)
        if port is not None and port != in_port:
            switch.send(packet, port)

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def add_room(self, name: str, latency: float = 0.001) -> "Switch":
        """Add a per-room/per-floor access switch uplinked to the core.

        Devices placed in a room (``add_device(..., room=name)``) tunnel
        through the room switch toward the shared cluster -- the
        enterprise shape of section 2.2 ("a well-provisioned on-premise
        cluster").
        """
        room = self.topology.add_switch(name)
        self.topology.connect(self.edge, room, latency=latency)
        self.rooms[name] = room
        if self.spec.with_iotsec:
            room.bound = dict.fromkeys(self.edge.bound)  # all bound elsewhere
            room.trunks.add(room.port_to(self.EDGE))
            self.edge.trunks.add(self.edge.port_to(name))
            room.on_forgery = self._on_forgery
        if self.controller is not None:
            self.controller.adopt_packet_in(room)
        elif not self.spec.with_iotsec:
            room.packet_in_handler = self._plain_forwarder
        return room

    def add_device(
        self,
        factory: Callable[..., IoTDevice],
        name: str,
        latency: float = 0.002,
        pair_with_hub: bool = True,
        room: str | None = None,
        **kwargs: Any,
    ) -> IoTDevice:
        device = factory(name, self.sim, env=self.env, **kwargs)
        self.topology.add(device)
        switch = self.rooms[room] if room is not None else self.edge
        link = self.topology.connect(switch, device, latency=latency)
        self.devices[name] = device
        if pair_with_hub:
            self.hub.pair(device)
        if self.orchestrator is not None:
            # the port where inspected traffic returns: toward the cluster
            # (directly at the core, or via the core uplink from a room)
            toward = self.CLUSTER if room is None else self.EDGE
            cluster_port = switch.port_to(toward)
            assert cluster_port is not None
            device_port = link.port_a if link.a is switch else link.port_b
            self.orchestrator.attach(
                name,
                SwitchAttachment(
                    switch=switch, device_port=device_port, cluster_port=cluster_port
                ),
            )
            self._bind_identity(name, switch, device_port)
        if self.controller is not None:
            self.controller.register_device(device)
        return device

    def add_attacker(self, name: str = "attacker", latency: float = 0.020) -> Attacker:
        attacker = Attacker(name, self.sim)
        self.topology.add(attacker)
        self.topology.connect(self.edge, attacker, latency=latency)
        self.attackers[name] = attacker
        return attacker

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def default_policy(self) -> PolicyFSM:
        """Suspicious devices get locked to trusted sources; compromised
        devices are quarantined.  The 'sensible default' policy."""
        builder = PolicyBuilder()
        for name in sorted(self.devices):
            builder.device(name)
        for var_name, variable in sorted(self.env.variables.items()):
            builder.env(var_name, variable.levels())
        trusted = (self.HUB, self.CONTROLLER)
        for name in sorted(self.devices):
            builder.when(f"ctx:{name}", SUSPICIOUS).give(
                name,
                build_recommended_posture(
                    "stateful_firewall", name, trusted_sources=trusted
                ),
                priority=200,
            )
            builder.when(f"ctx:{name}", COMPROMISED).give(
                name,
                build_recommended_posture("quarantine", name),
                priority=300,
            )
        return builder.build()

    def finalize(self) -> "SecuredDeployment":
        """Start physics and (IoTSec mode) the controller and its planes,
        then seed the spec's signatures and apply its posture rule."""
        if self._finalized:
            return self
        self._finalized = True
        self.env.start()
        spec = self.spec
        if not spec.with_iotsec:
            return self
        assert self.orchestrator is not None and self.cluster is not None
        if self.policy is None:
            self.policy = self.default_policy()
        controller = self.new_controller(self.policy, self.CONTROLLER)
        if spec.durable_telemetry:
            from repro.obs.stream import HostStream

            self.host_stream = HostStream(
                self.sim,
                host=self.CLUSTER,
                channel=self.channel,
                controller=self.CONTROLLER,
            )
            self.cluster.attach_stream(self.host_stream)
        for switch in self.switches():
            controller.adopt_packet_in(switch)
        controller.watch_environment(self.env)
        for device in self.devices.values():
            controller.register_device(device)
        # µmbox alerts and view deltas travel the control channel to the
        # controller.
        self.cluster.alert_sink = self._forward_alert
        self.cluster.delta_sink = self._forward_delta
        # The cluster's context view is the controller's global view.
        self.cluster.view = lambda key: (
            self.controller.view.get(key) if self.controller else None
        )
        # µmbox health: crashed instances are detected by the periodic
        # sweep, rebooted, and their chains re-pinned by the orchestrator.
        if spec.health_check_period is not None and self.manager is not None:
            self.manager.on_recovery = lambda device: self.orchestrator.repin(device)
            self.manager.start_health_checks(spec.health_check_period)
        if spec.checkpointing or spec.standby:
            self.checkpoint_store = CheckpointStore()
        self._bind(controller, replicate=spec.standby)
        if spec.standby:
            self.standby_controller = StandbyController(self, on_takeover=self._bind)
        if spec.health:
            from repro.obs.health import attach_health_plane

            self.health_plane = attach_health_plane(self, period=spec.health_period)
        if spec.signatures:
            from repro.learning.repository import CrowdRepository
            from repro.learning.signatures import AttackSignature

            # The coordinator's log as a first sync delivers it: at once.
            cache = CrowdRepository(self.sim, free_rider_delay=0.0, base_delay=0.0)
            for wire in spec.signatures:
                cache.publish(AttackSignature.from_dict(wire), reporter="coordinator")
            self.attach_repository(cache)
        if spec.postures == "baseline":
            self.enforce_baseline()
        elif spec.postures == "pin-by-flaw":
            self.pin_by_flaw()
        return self

    # ------------------------------------------------------------------
    # The controller seam: one construction site, one adoption path
    # ------------------------------------------------------------------
    def switches(self) -> list["Switch"]:
        """Every switch a controller of this site serves packet-ins for."""
        return [self.edge, *self.rooms.values()]

    def new_controller(self, policy: PolicyFSM, name: str) -> IoTSecController:
        """Build a controller incarnation wired to this site's planes.

        First boot, cold restart and standby takeover all construct
        through here, so a plane the controller must know about is
        threaded in once.  (Stream offsets are in-memory controller
        state: a revived controller starts a fresh consumer, hosts replay
        from their ack watermark and the consumer adopts the base on
        first contact.)
        """
        assert self.orchestrator is not None
        return IoTSecController(
            name=name,
            sim=self.sim,
            policy=policy,
            orchestrator=self.orchestrator,
            channel=self.channel,
            topology=self.topology,
            ingest=self.spec.ingest,
            durable_telemetry=self.spec.durable_telemetry,
        )

    def _bind(self, controller: IoTSecController, replicate: bool = False) -> None:
        """Adopt ``controller`` as this site's incarnation.

        The cluster's alert sink and view closures resolve
        ``self.controller`` dynamically, so rebinding the attribute is
        enough for the data path; the checkpoint loop is re-wired to the
        new instance.  The cluster's taps forget what they reported, so
        every device's next report reaches the new view.  Only first boot
        replicates to the standby -- after a restart or takeover that seat
        is empty.
        """
        self.controller = controller
        if self.cluster is not None:
            self.cluster.resync()
        if self.checkpoint_store is not None:
            if self.checkpointer is not None:
                self.checkpointer.stop()
            self.checkpointer = Checkpointer(
                controller,
                self.checkpoint_store,
                period=self.spec.checkpoint_period,
                channel=self.channel if replicate else None,
                standby=self.STANDBY if replicate else None,
            )

    # ------------------------------------------------------------------
    # Controller failure / recovery
    # ------------------------------------------------------------------
    def crash_controller(self) -> None:
        """Kill the primary controller (fault injection entry point)."""
        if self.controller is None:
            raise RuntimeError("deployment has no controller to crash")
        if self.checkpointer is not None:
            # The checkpoint loop dies with the process; the store (its
            # "disk") survives for restart.
            self.checkpointer.stop()
            self.checkpointer = None
        self.controller.crash()

    def restart_controller(self) -> IoTSecController:
        """Cold restart from the latest local checkpoint + journal tail."""
        store = self.checkpoint_store
        checkpoint = store.latest() if store is not None else None
        if checkpoint is None:
            raise RuntimeError(
                "no checkpoint to restart from (enable checkpointing=True)"
            )
        tail = [
            e.as_dict() for e in self.sim.journal.entries_since(checkpoint.seq)
        ]
        controller = restore_controller(self, checkpoint, tail)
        self._bind(controller)
        return controller

    def _bind_identity(
        self, identity: str, switch: "Switch | None" = None, port: int | None = None
    ) -> None:
        """Let ``identity`` into the site only at ``port`` of ``switch``
        (nowhere, without them); every other switch's access ports refuse it."""
        for each in self.switches():
            each.bound[identity] = port if each is switch else None

    def _on_forgery(self, switch: "Switch", packet: Packet, in_port: int) -> None:
        """The edge dropped a packet claiming a bound identity: raise an
        enforcing ``source-forgery`` alert against the host on that port."""
        link = switch.ports[in_port]
        host = (link.b if link.a is switch else link.a).name
        context = MboxContext(self.sim, switch.name, host, _no_view, self._forward_alert, packet)
        context.alert(SOURCE_FORGERY, claimed=packet.src, dst=packet.dst, port=in_port)

    def _forward_alert(self, alert: Alert) -> None:
        # The detail is shared, not copied: an alert's detail is immutable
        # once raised, and the channel's own body copy is the boundary.
        body = {
            "device": alert.device,
            "kind": alert.kind,
            "mbox": alert.mbox,
            "detail": alert.detail,
            "trace": alert.trace_id,
        }
        if self.host_stream is not None:
            # Durable plane: the alert enters the host's stream lane and
            # ships (and re-ships) as an offset-ordered batch until the
            # controller acknowledges it -- partitions delay it, they no
            # longer delete it.
            self.host_stream.offer(alert.kind, body)
            return
        self.channel.send(
            self.CLUSTER,
            self.CONTROLLER,
            "alert",
            body,
            # Security alerts are the trigger for every escalation: a lost
            # alert is a lost re-enforcement, so they ride the cluster's
            # lane to the controller when the deployment opts into
            # reliable control.
            reliable=self.spec.reliable_control,
        )

    def _forward_delta(self, device: str, state: Any, readings: Any) -> None:
        # The readings are shared, not copied (see _forward_alert).  A delta
        # takes the telemetry transport: the stream's bulk lane when
        # durable, else one unreliable send -- a lost one is re-sent by the
        # tap's heartbeat.
        body = {"device": device, "kind": VIEW_DELTA, "state": state, "readings": readings}
        if self.host_stream is not None:
            self.host_stream.offer(VIEW_DELTA, body)
        else:
            self.channel.send(self.CLUSTER, self.CONTROLLER, VIEW_DELTA, body)

    # ------------------------------------------------------------------
    # Enforcement helpers
    # ------------------------------------------------------------------
    def secure(self, device: str, posture: Posture, pin: bool = True) -> None:
        """Directly apply a posture (administrator action).

        Pinned by default: the policy loop will not override an explicit
        administrator decision (Fig. 4's proxy must survive the context
        escalation that the attack it blocks provokes).  Pinned and
        applied as one flow change, so the flows the chain declares itself
        blind to (see :mod:`repro.core.orchestrator`) ride the same push
        as its tunnel rules.
        """
        if self.orchestrator is None:
            raise RuntimeError("deployment built without IoTSec")
        if not self._finalized:
            self.finalize()
        if pin:
            self.orchestrator.apply_pinned(device, posture)
        else:
            self.orchestrator.apply(device, posture)

    def enforce_baseline(self, monitor: bool = True) -> None:
        """Give every device its policy posture (plus a monitor posture
        where the policy is permissive, so the controller sees context)."""
        if self.controller is None:
            self.finalize()
        assert self.controller is not None and self.orchestrator is not None
        self.controller.enforce_all()
        if monitor:
            # Batched actuation: one apply_many round means one flow-rule
            # push per switch however many devices need a monitor posture.
            assignments = []
            for name, device in self.devices.items():
                current = self.orchestrator.posture_of(name)
                if current is None or current.is_permissive:
                    assignments.append(
                        (name, build_recommended_posture("monitor", name, sku=device.sku))
                    )
            self.orchestrator.apply_many(assignments)

    def pin_by_flaw(self) -> None:
        """Pin every device to the posture its flaw class calls for: a
        password proxy for exposed credentials, a stateful firewall for a
        backdoor or exposed access, a monitor otherwise (E9's rule)."""
        trusted = (self.HUB, self.CONTROLLER)
        for name, device in self.devices.items():
            flaws = device.firmware.flaw_classes()
            if "exposed-credentials" in flaws:
                posture = build_recommended_posture("password_proxy", name)
            elif flaws & {"backdoor", "exposed-access"}:
                posture = build_recommended_posture(
                    "stateful_firewall", name, trusted_sources=trusted
                )
            else:
                posture = build_recommended_posture("monitor", name, sku=device.sku)
            self.secure(name, posture)

    def apply_hardening_plan(
        self,
        plan: list[tuple[str, str]],
        new_password: str = "S3cure!gateway",
        pin: bool = True,
    ) -> list[str]:
        """Apply an attack-graph hardening plan (device, mitigation) list.

        Returns the devices actually hardened (unknown devices skipped).
        Closes the loop from :meth:`AttackGraphBuilder.hardening_plan` to
        running µmboxes.
        """
        hardened = []
        trusted = (self.HUB, self.CONTROLLER)
        for device, mitigation in plan:
            if device not in self.devices:
                continue
            fw = self.devices[device].firmware
            cred = fw.credentials[0] if fw.credentials else None
            posture = build_recommended_posture(
                mitigation,
                device,
                trusted_sources=trusted,
                new_password=new_password,
                device_username=cred.username if cred else "admin",
                device_password=cred.password if cred else "admin",
                sku=fw.sku,
            )
            self.secure(device, posture, pin=pin)
            hardened.append(device)
        return hardened

    def attach_repository(self, repository: "CrowdRepository") -> None:
        """Feed crowdsourced signatures into this site's IDS µmboxes.

        Two paths: newly deployed IDS µmboxes pull the current signature
        set for their device's SKU; already-running ones receive future
        publications live through the repository's subscription push.
        """
        self.repository = repository
        if self.manager is None:
            return
        self.manager.signature_provider = lambda sku: repository.signatures_for(sku)

        from repro.mboxes.ids import SignatureIDS

        def deliver_to(device_name: str):
            def deliver(signature) -> None:
                mbox = self.cluster.mboxes.get(device_name) if self.cluster else None
                if mbox is None:
                    return
                for element in mbox.elements:
                    if isinstance(element, SignatureIDS):
                        element.add_signature(signature)

            return deliver

        for name, device in self.devices.items():
            repository.subscribe(f"{self.CONTROLLER}:{name}", device.sku, deliver_to(name))

    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> None:
        if not self._finalized:
            self.finalize()
        self.sim.run(until=until)

    def alerts(self, device: str | None = None) -> list[Alert]:
        if self.cluster is None:
            return []
        if device is None:
            return list(self.cluster.alerts)
        return self.cluster.alerts_for(device)
