"""The deployment harness: a complete secured (or unsecured) smart home.

Assembles the Figure 2 architecture end to end: edge switch, security
cluster (:class:`MboxHost` + :class:`MboxManager`), automation hub,
internet uplink, physical environment, devices, and -- when
``with_iotsec`` -- the controller, policy FSM and orchestrator.  With
``with_iotsec=False`` the same home runs "current world" style: all
traffic is forwarded reactively with no interposition, which is every
bench's baseline arm.

Typical use::

    dep = SecuredDeployment.build()
    cam = dep.add_device(smart_camera, "cam")
    plug = dep.add_device(smart_plug, "plug", load={"heat_watts": 1500.0})
    attacker = dep.add_attacker()
    dep.finalize()            # builds policy (if none given) + controller
    dep.enforce_baseline()    # monitor posture on every device
    ... launch exploits ...
    dep.run(until=120.0)
"""

from __future__ import annotations

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
from repro.mboxes.base import Alert, MboxHost, Verdict
from repro.mboxes.manager import MboxManager
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
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
    """One smart home/enterprise site, optionally protected by IoTSec."""

    EDGE = "edge"
    CLUSTER = "cluster"
    INTERNET = "internet"
    HUB = "hub"
    CONTROLLER = "controller"
    STANDBY = "standby"

    def __init__(
        self,
        sim: Simulator | None = None,
        policy: PolicyFSM | None = None,
        with_iotsec: bool = True,
        channel_latency: float = 0.002,
        consistent_updates: bool = False,
        reliable_control: bool = False,
        health_check_period: float | None = None,
        ingest: IngestConfig | None = None,
        durable_telemetry: bool = False,
        checkpointing: bool = False,
        checkpoint_period: float = 5.0,
        standby: bool = False,
        ha_seed: int = 0,
        health: bool = False,
        health_period: float = 5.0,
    ) -> None:
        self.sim = sim or Simulator()
        #: Resilience knobs: ``reliable_control`` puts security alerts and
        #: flow-mods on the channel's offset lanes (exactly once, in order,
        #: no give-up) so a lossy or partitioned control channel delays
        #: enforcement instead of silently losing it;
        #: ``health_check_period`` starts the µmbox health sweep that
        #: reboots crashed instances and re-pins chains.
        self.reliable_control = reliable_control
        self.health_check_period = health_check_period
        #: Survivability knobs (all strictly opt-in so the default event
        #: schedule is unchanged): ``ingest`` puts the bounded priority
        #: queue in front of alert handling; ``checkpointing`` starts the
        #: periodic snapshot loop (restart capital); ``standby`` also
        #: replicates checkpoints + journal deltas to a hot standby that
        #: takes over on heartbeat timeout.
        self.ingest_config = ingest
        #: Durable telemetry plane (opt-in): every alert *and* telemetry
        #: record rides the cluster's two stream lanes to the controller's
        #: consumer + dead-letter queue, so telemetry too survives
        #: partitions (replayed in order) instead of vanishing with the
        #: wire.
        self.durable_telemetry = durable_telemetry
        self.host_stream: "HostStream | None" = None
        self.checkpointing = checkpointing
        self.checkpoint_period = checkpoint_period
        self.standby = standby
        self.ha_seed = ha_seed
        self.checkpoint_store: CheckpointStore | None = None
        self.checkpointer: Checkpointer | None = None
        self.standby_controller: StandbyController | None = None
        #: SLO & health plane (opt-in): online burn-rate evaluation of the
        #: declared security objectives plus per-subsystem rollups.  Inert
        #: when the simulator runs with ``observe=False``.
        self.health_enabled = health
        self.health_period = health_period
        self.health_plane: "HealthPlane | None" = None
        self.topology = Topology(self.sim)
        self.with_iotsec = with_iotsec
        self._given_policy = policy
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

        self.channel = ControlChannel(self.sim, latency=channel_latency)
        self.cluster: MboxHost | None = None
        self.manager: MboxManager | None = None
        self.orchestrator: PostureOrchestrator | None = None
        self.controller: IoTSecController | None = None
        self.repository: "CrowdRepository | None" = None

        if with_iotsec:
            self.cluster = MboxHost(
                self.CLUSTER,
                self.sim,
                default_verdict=Verdict.PASS,  # unbound devices flow freely
            )
            self.topology.add(self.cluster)
            self.topology.connect(self.edge, self.cluster, latency=0.001)
            self.manager = MboxManager(self.sim, self.cluster)
            updater = None
            if consistent_updates:
                from repro.sdn.consistency import ConsistentUpdater

                updater = ConsistentUpdater(
                    self.sim, self.channel, reliable=reliable_control
                )
            self.orchestrator = PostureOrchestrator(
                self.sim, self.manager, {}, updater=updater
            )
        else:
            # "Current world": reactive L2 forwarding, nothing interposed.
            self.edge.packet_in_handler = self._plain_forwarder

        self._finalized = False

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, **kwargs: Any) -> "SecuredDeployment":
        return cls(**kwargs)

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
        if self.controller is not None:
            self.controller.adopt_packet_in(room)
        elif not self.with_iotsec:
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
            self.orchestrator.attach(
                name,
                SwitchAttachment(
                    switch=switch,
                    device_port=link.port_a if link.a is switch else link.port_b,
                    cluster_port=cluster_port,
                ),
            )
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
        """Create the controller (IoTSec mode) and start physics."""
        if self._finalized:
            return self
        self._finalized = True
        self.env.start()
        if not self.with_iotsec:
            return self
        assert self.orchestrator is not None and self.cluster is not None
        if self.policy is None:
            self.policy = self.default_policy()
        controller = self.new_controller(self.policy, self.CONTROLLER)
        if self.durable_telemetry:
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
        # µmbox alerts travel the control channel to the controller.
        self.cluster.alert_sink = self._forward_alert
        # The cluster's context view is the controller's global view.
        self.cluster.view = lambda key: (
            self.controller.view.get(key) if self.controller else None
        )
        # µmbox health: crashed instances are detected by the periodic
        # sweep, rebooted, and their chains re-pinned by the orchestrator.
        if self.health_check_period is not None and self.manager is not None:
            self.manager.on_recovery = lambda device: self.orchestrator.repin(device)
            self.manager.start_health_checks(self.health_check_period)
        if self.checkpointing or self.standby:
            self.checkpoint_store = CheckpointStore()
        self._bind(controller, replicate=self.standby)
        if self.standby:
            self.standby_controller = StandbyController(
                self,
                policy=self.policy,
                name=self.STANDBY,
                primary=self.CONTROLLER,
                seed=self.ha_seed,
                on_takeover=self._bind,
            )
        if self.health_enabled:
            self.attach_health(self.health_period)
        return self

    def attach_health(self, period: float = 5.0) -> "HealthPlane":
        """Attach (and start) the SLO/health plane.  Idempotent.

        Finalizes the deployment first if needed: the SLO catalog closes
        over the controller, streams and HA components.
        """
        if not self._finalized:
            self.finalize()
        if self.health_plane is None:
            from repro.obs.health import attach_health_plane

            self.health_plane = attach_health_plane(self, period=period)
        return self.health_plane

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
            ingest=self.ingest_config,
            durable_telemetry=self.durable_telemetry,
        )

    def _bind(self, controller: IoTSecController, replicate: bool = False) -> None:
        """Adopt ``controller`` as this site's incarnation.

        The cluster's alert sink and view closures resolve
        ``self.controller`` dynamically, so rebinding the attribute is
        enough for the data path; backpressure and the checkpoint loop
        are re-wired to the new instance.  Only first boot replicates to
        the standby -- after a restart or takeover that seat is empty.
        """
        self.controller = controller
        if controller.ingest is not None and self.cluster is not None:
            controller.ingest.on_shed = self.cluster.set_backpressure
        if self.checkpoint_store is not None:
            if self.checkpointer is not None:
                self.checkpointer.stop()
            self.checkpointer = Checkpointer(
                controller,
                self.checkpoint_store,
                period=self.checkpoint_period,
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
        controller = restore_controller(self, checkpoint, tail, name=self.CONTROLLER)
        self._bind(controller)
        return controller

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
            reliable=self.reliable_control and alert.kind != "telemetry",
        )

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
