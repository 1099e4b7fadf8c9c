"""The five ledger workloads: seeded inputs, builders, one closed-batch run.

Every workload is a closed batch over the deterministic simulator: a fixed
fleet, a fixed simulated horizon, and inputs drawn from the seed *before*
anything is built (:func:`generate_inputs`).  The program under test only
ever sees those inputs; nothing in here reaches past the public surface of
``repro`` (constructor arguments, public methods and attributes).

One run is three windows of simulated time:

- ``[0, warmup]``: build + finalize + postures + a simulated warm-up; its
  wall clock is ``setup_s``;
- ``(warmup, warmup + horizon]``: the timed region (``pkts_per_s``);
- a short untimed drain so in-flight packets and buffered evidence land
  before deliveries and alerts are reconciled.
"""

from __future__ import annotations

import gc
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import hostclock
from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.core.overload import IngestConfig
from repro.devices.library import smart_bulb, smart_camera, smart_plug, thermostat
from repro.faults.campaign import journal_digest
from repro.learning.signatures import backdoor_signature, default_credential_signature
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.policy.builder import PolicyBuilder
from repro.policy.context import COMPROMISED, NORMAL, SUSPICIOUS
from repro.sdn.channel import FaultModel

#: The E9 fleet: device ``i`` is built by ``FACTORY_CYCLE[i % 4]``.
FACTORY_CYCLE = (smart_camera, smart_plug, thermostat, smart_bulb)
CAMERA, PLUG, THERMOSTAT, BULB = range(4)
BACKDOOR_PORT = 49153

COLLECTOR = "collector"
#: Untimed tail after the timed region (simulated seconds).
DRAIN = 10.0
#: The timed region runs as this many equal slices of simulated time with
#: a host-speed calibration spin between them (see hostclock.py).
SLICES = 160

#: Attack waves (the two enforcement workloads).
WAVE_PERIOD = 5.0
WAVE_TARGETS = 8
REARM_DELAY = 4.0
#: Every REPIN_EVERY-th re-arm also re-pins one chain (a full two-phase
#: epoch).  The updater installs an epoch rule by rule, re-sorting the
#: table each time; at every wave that one quadratic step would be two
#: thirds of the run and hide the rest of the slow path.
REPIN_EVERY = 6
HARVEST_DELAY = 4.5
ATTACKERS = 4
#: The exploit each device kind draws (one kind per device, so replies
#: always correlate with a callback of the same exploit at the attacker).
#: Cameras draw the one-packet credential hijack, not the brute force: a
#: brute force keeps the device replying while its posture is swapped
#: under it, and when the swap lands between an attempt and its reply the
#: fresh stateful firewall takes the reply for a device-initiated flow and
#: admits the attacker's next attempts -- ``admin/admin`` included (seen
#: on two seeds in ten with channel faults on).  A hole for a later issue;
#: a throughput benchmark needs workloads on which no operation fails.
WAVE_EXPLOIT = {
    CAMERA: "default_credential_hijack",
    PLUG: "backdoor_command",
    THERMOSTAT: "brute_force_login",
    BULB: "unauthenticated_command",
}
#: Exploits a signature in the monitor posture's IDS stops on first sight.
SIGNATURE_COVERED = frozenset(
    {(CAMERA, "default_credential_hijack"), (PLUG, "backdoor_command")}
)

#: Control partitions (``partition-replay``): every cycle, after an offset.
PARTITION_CYCLE = 300.0
PARTITION_OFFSET = 120.0
PARTITION_LENGTH = 45.0

#: The ingest queue's default 256 entries cannot hold the burst a healed
#: 45 s partition replays (nine waves of alerts at once): it evicts
#: monitor-class alerts, and the workload would fail its own zero-loss
#: check.  Sized to the burst, as an operator running this plane would.
INGEST_CAPACITY = 2048


@dataclass(frozen=True)
class Spec:
    """One workload: what is built, for how long, and why it exists."""

    name: str
    why: str
    devices: int
    telemetry_period: float
    horizon: float
    warmup: float = 60.0
    iotsec: bool = True
    #: Unpinned, policy-driven postures under attack waves (the slow path).
    waves: bool = False
    #: Every opt-in plane on, seeded channel faults and control partitions.
    planes: bool = False


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="home-steady",
            why="conforming-traffic fast path: 80 pinned devices, 2 s telemetry, "
            "planes off; link hop, megaflow hit, tunnel and mbox chain do the work",
            devices=80,
            telemetry_period=2.0,
            horizon=3600.0,
        ),
        Spec(
            name="fleet-1k",
            why="same packet rate, larger working set: 1,000 devices overflow the "
            "1,024-entry megaflow cache and make set-up time large enough to trust",
            devices=1000,
            telemetry_period=20.0,
            horizon=1800.0,
        ),
        Spec(
            name="attack-storm",
            why="enforcement slow path: policy-driven postures under attack waves; "
            "drop verdicts, escalation, pipeline rounds, reconfigures, epoch pushes",
            devices=80,
            telemetry_period=20.0,
            horizon=3600.0,
            waves=True,
        ),
        Spec(
            name="partition-replay",
            why="every opt-in plane on with channel faults and 45 s partitions: "
            "stream replay, reliable channel, checkpoints, ingest queue, SLO ticks",
            devices=80,
            telemetry_period=2.0,
            horizon=1200.0,
            waves=True,
            planes=True,
        ),
        Spec(
            name="bare-forward",
            why="bypass: home-steady's fleet and traffic with the security stack "
            "off, so only simulator, links, devices, hub and environment run",
            devices=80,
            telemetry_period=2.0,
            horizon=14400.0,
            iotsec=False,
        ),
    )
}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Wave:
    """One attack wave and, when the administrator can reach the site,
    the re-arm that follows it."""

    at: float
    #: ``(attacker index, target device index, exploit name)``
    hits: tuple[tuple[int, int, str], ...]
    rearm: bool
    repin: bool


@dataclass(frozen=True)
class Inputs:
    """Everything seeded, generated before the deployment exists."""

    seed: int
    device_order: tuple[int, ...]
    #: Telemetry start offset per device index (first report one period on).
    phases: tuple[float, ...]
    #: E9's two opening attacks: a camera and a plug (device indices).
    opening_targets: tuple[int, int]
    waves: tuple[Wave, ...]
    fault_seed: int
    partitions: tuple[tuple[float, float], ...]


def partition_windows(spec: Spec, horizon: float) -> tuple[tuple[float, float], ...]:
    if not spec.planes:
        return ()
    windows = []
    start = spec.warmup + PARTITION_OFFSET
    while start + PARTITION_LENGTH < spec.warmup + horizon:
        windows.append((start, start + PARTITION_LENGTH))
        start += PARTITION_CYCLE
    return tuple(windows)


def generate_inputs(spec: Spec, seed: int, horizon: float | None = None) -> Inputs:
    """Draw every seeded input of one run (same seed, same inputs)."""
    horizon = spec.horizon if horizon is None else horizon
    # bare-forward replays home-steady's fleet, seed and traffic.
    stream = "home-steady" if spec.name == "bare-forward" else spec.name
    rng = random.Random(f"ledger:{stream}:{seed}")
    n = spec.devices
    order = list(range(n))
    rng.shuffle(order)
    # Millisecond grid offset by half a step: no report ever coincides with
    # a window boundary, so expected report counts are exact.
    steps = int(spec.telemetry_period * 1000)
    phases = tuple((rng.randrange(steps) + 0.5) / 1000.0 for __ in range(n))
    opening = (
        rng.randrange(CAMERA, n, 4),
        rng.randrange(PLUG, n, 4),
    )
    partitions = partition_windows(spec, horizon)
    waves = []
    if spec.waves:
        at = spec.warmup + WAVE_PERIOD
        while at + HARVEST_DELAY < spec.warmup + horizon:
            targets = rng.sample(range(n), WAVE_TARGETS)
            hits = tuple(
                (rng.randrange(ATTACKERS), target, WAVE_EXPLOIT[target % 4])
                for target in targets
            )
            # The administrator sits behind the controller: during a
            # control partition nobody re-arms anything.
            rearm_at = at + REARM_DELAY
            reachable = not any(lo <= rearm_at < hi for lo, hi in partitions)
            repin = reachable and len(waves) % REPIN_EVERY == 0
            waves.append(Wave(at=at, hits=hits, rearm=reachable, repin=repin))
            at += WAVE_PERIOD
    return Inputs(
        seed=seed,
        device_order=tuple(order),
        phases=phases,
        opening_targets=opening,
        waves=tuple(waves),
        fault_seed=rng.randrange(1 << 30),
        partitions=partitions,
    )


# ----------------------------------------------------------------------
# Small statistics
# ----------------------------------------------------------------------
#: A percentile is reported only with this many samples beyond it.
MIN_TAIL = 10


def percentile(samples: list[float], p: float) -> float | None:
    """Nearest-rank percentile, or None with fewer than ``MIN_TAIL``
    samples beyond it (``p`` in (0, 1))."""
    n = len(samples)
    if n * (1.0 - p) < MIN_TAIL:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p * n) - 1)]


# ----------------------------------------------------------------------
# The world: one built deployment plus the benchmark's own instruments
# ----------------------------------------------------------------------
def device_name(index: int) -> str:
    return f"dev{index}"


def reports_to_collector(index: int) -> bool:
    """Every fourth device, rotating through the four kinds."""
    return index % 4 == (index // 4) % 4


class ChainHarvester:
    """Collects detect->enforce chains before bounded retention loses them.

    Time to enforcement is the ``detect`` span's start (the offending
    packet's creation) to the end of the ``actuate`` span of the same
    trace.  The detect start is read from the tracer every wave, well
    inside its 512-trace retention.  The actuation is read from two public
    lists that are never evicted -- the controller's reactions (trace id,
    device, when applied) joined with the manager's deployment records
    (device, when requested, when ready) -- because a trace whose alert
    sat out a partition is evicted long before its chain completes, and
    its later spans are dropped with it.  (No traced chain here changes a
    flow table, so ``flow-install``/``epoch-commit`` never extend one.)
    """

    def __init__(self, world: "World") -> None:
        self.world = world
        self._seen_trace = 0
        self._seen_reactions = 0
        self._seen_deploys = 0
        self._detect: dict[int, float] = {}
        self._ready: dict[tuple[str, float], float] = {}
        self._enforced: dict[int, float] = {}

    def harvest(self) -> None:
        dep = self.world.dep
        if dep.controller is None:
            return
        tracer = self.world.sim.tracer
        for trace_id in tracer.trace_ids():
            if trace_id <= self._seen_trace:
                continue
            self._seen_trace = trace_id
            for span in tracer.spans(trace_id):
                if span.stage == "detect":
                    self._detect[trace_id] = span.start
                    break
        deploys = dep.manager.records
        for record in deploys[self._seen_deploys:]:
            self._ready[(record.device, record.requested_at)] = record.ready_at
        self._seen_deploys = len(deploys)
        reactions = dep.controller.reactions
        for reaction in reactions[self._seen_reactions:]:
            if reaction.trace_id in self._detect:
                key = (reaction.device, reaction.applied_at)
                self._enforced[reaction.trace_id] = self._ready.get(key, reaction.applied_at)
        self._seen_reactions = len(reactions)
        self._ready.clear()

    def times_to_enforcement(self) -> list[float]:
        return [end - self._detect[trace] for trace, end in self._enforced.items()]


class World:
    """A built workload: the deployment and everything the run reads back."""

    def __init__(
        self,
        spec: Spec,
        inputs: Inputs,
        horizon: float,
        observe: bool = True,
        harness_wrap: Callable[[Callable], Callable] = lambda fn: fn,
    ) -> None:
        self.spec = spec
        self.inputs = inputs
        self.end = spec.warmup + horizon
        self.sim = Simulator(observe=observe)
        planes: dict[str, Any] = {}
        if spec.waves:
            planes["consistent_updates"] = True
        if spec.planes:
            planes.update(
                durable_telemetry=True,
                reliable_control=True,
                checkpointing=True,
                ingest=IngestConfig(capacity=INGEST_CAPACITY),
                health_check_period=1.0,
                health=True,
            )
        dep = self.dep = SecuredDeployment.build(sim=self.sim, with_iotsec=spec.iotsec, **planes)
        if dep.manager is not None:
            # Raised from outside, as federation/runner.py does.
            dep.manager.capacity = max(256, spec.devices + 8)

        # Benchmark-owned sink: measures one-way latency of benign reports.
        self.latencies: list[float] = []
        self.collector = Host(COLLECTOR, self.sim)
        self.collector.responder = harness_wrap(self._on_report)
        dep.topology.add(self.collector)
        dep.topology.connect(dep.edge, self.collector, latency=0.002)

        for index in inputs.device_order:
            device = dep.add_device(
                FACTORY_CYCLE[index % 4],
                device_name(index),
                report_to=COLLECTOR if reports_to_collector(index) else dep.HUB,
                telemetry_period=spec.telemetry_period,
            )
            self.sim.schedule(inputs.phases[index], device.start_telemetry)
        if spec.waves:
            self.attackers = [dep.add_attacker(f"attacker{i}") for i in range(ATTACKERS)]
            self._bring_up_policy_driven()
        else:
            self.attackers = [dep.add_attacker()]
            dep.finalize()
            if spec.iotsec:
                self._pin_e9_postures()
        if spec.planes:
            dep.channel.inject_faults(
                FaultModel(seed=inputs.fault_seed, drop_prob=0.05, jitter=0.004)
            )
            for start, stop in inputs.partitions:
                dep.channel.partition(start, stop, endpoints=(dep.CONTROLLER,))

        #: ``(result, expected_blocked)`` per exploit launched.
        self.exploits: list[tuple[Any, bool]] = []
        self._launch_opening()
        self.harvester = ChainHarvester(self)
        harvest = harness_wrap(self.harvester.harvest)
        launch = harness_wrap(self._launch_wave)
        rearm = harness_wrap(self._rearm)
        for wave in inputs.waves:
            self.sim.schedule_at(wave.at, launch, wave)
            if wave.rearm:
                self.sim.schedule_at(wave.at + REARM_DELAY, rearm, wave)
            self.sim.schedule_at(wave.at + HARVEST_DELAY, harvest)

    # ------------------------------------------------------------------
    # Build helpers
    # ------------------------------------------------------------------
    def _monitor(self, index: int):
        name = device_name(index)
        return build_recommended_posture("monitor", name, sku=self.dep.devices[name].sku)

    def _wave_policy(self):
        """normal -> monitor, suspicious -> firewall, compromised -> quarantine."""
        dep = self.dep
        trusted = (dep.HUB, dep.CONTROLLER)
        builder = PolicyBuilder()
        for index in range(self.spec.devices):
            builder.device(device_name(index))
        for index in range(self.spec.devices):
            name = device_name(index)
            builder.when(f"ctx:{name}", NORMAL).give(name, self._monitor(index), priority=100)
            builder.when(f"ctx:{name}", SUSPICIOUS).give(
                name,
                build_recommended_posture("stateful_firewall", name, trusted_sources=trusted),
                priority=200,
            )
            builder.when(f"ctx:{name}", COMPROMISED).give(
                name, build_recommended_posture("quarantine", name), priority=300
            )
        return builder.build()

    def _bring_up_policy_driven(self) -> None:
        dep = self.dep
        dep.policy = self._wave_policy()
        # Known-attack corpus for the monitor posture's IDS element.
        camera = dep.devices[device_name(CAMERA)].sku
        plug = dep.devices[device_name(PLUG)].sku
        corpus = {
            camera: [default_credential_signature(camera)],
            plug: [backdoor_signature(plug, BACKDOOR_PORT)],
        }
        dep.manager.signature_provider = lambda sku: corpus.get(sku, [])
        # Registering a device writes its context, which the policy turns
        # into a monitor posture.  Finalizing inside the event loop lets
        # the pipeline coalesce the fleet's writes into one round and one
        # epoch; outside it every device would flush its own full-table
        # epoch (80 pushes of up to 320 rules -- seconds of set-up).
        self.sim.schedule(0.0, dep.finalize)
        self.sim.run(until=0.0)

    def _pin_e9_postures(self) -> None:
        dep = self.dep
        trusted = (dep.HUB, dep.CONTROLLER)
        for index in range(self.spec.devices):
            name = device_name(index)
            flaws = dep.devices[name].firmware.flaw_classes()
            if "exposed-credentials" in flaws:
                posture = build_recommended_posture("password_proxy", name)
            elif flaws & {"backdoor", "exposed-access"}:
                posture = build_recommended_posture(
                    "stateful_firewall", name, trusted_sources=trusted
                )
            else:
                posture = self._monitor(index)
            dep.secure(name, posture)

    # ------------------------------------------------------------------
    # Harness callbacks (benchmark-owned work inside the simulation)
    # ------------------------------------------------------------------
    def _on_report(self, packet) -> None:
        self.latencies.append(self.sim.now - packet.created_at)
        # Host keeps every packet; the collector only needs the timing.
        self.collector.inbox.clear()
        return None

    def _expected_blocked(self, index: int, exploit: str) -> bool:
        if self.dep.orchestrator is None:
            return False
        posture = self.dep.orchestrator.posture_of(device_name(index))
        if posture is None or posture.is_permissive:
            return False
        return posture.name != "monitor" or (index % 4, exploit) in SIGNATURE_COVERED

    def _launch(self, attacker, index: int, exploit: str) -> None:
        params: dict[str, Any] = {}
        if exploit == "backdoor_command":
            params = {"backdoor_port": BACKDOOR_PORT, "command": "on"}
        elif exploit == "unauthenticated_command":
            params = {"command": "on"}
        expected = self._expected_blocked(index, exploit)
        result = EXPLOITS[exploit].launch(attacker, device_name(index), self.sim, **params)
        self.exploits.append((result, expected))

    def _launch_opening(self) -> None:
        camera, plug = self.inputs.opening_targets
        self._launch(self.attackers[0], camera, "default_credential_hijack")
        self._launch(self.attackers[0], plug, "backdoor_command")

    def _launch_wave(self, wave: Wave) -> None:
        for attacker, target, exploit in wave.hits:
            self._launch(self.attackers[attacker], target, exploit)

    def _rearm(self, wave: Wave) -> None:
        """The administrator vetted the wave's targets: contexts back to
        normal, and now and then the first target's chain re-pinned (one
        two-phase epoch -- flow-table writes beside the fast path's reads)."""
        controller = self.dep.controller
        for __, target, __ in wave.hits:
            controller.clear_context(device_name(target))
        if wave.repin:
            self.dep.orchestrator.repin(device_name(wave.hits[0][1]))

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    def end_hosts(self) -> list[Any]:
        dep = self.dep
        return [*dep.devices.values(), dep.hub, dep.internet, self.collector, *self.attackers]

    def delivered(self) -> int:
        """End-host packets delivered so far (switches and cluster excluded)."""
        return sum(node.rx_count for node in self.end_hosts())

    def reports_sent(self) -> int:
        """Benign reports the fleet sent up to the end of the timed region."""
        period = self.spec.telemetry_period
        return sum(int((self.end - phase) // period) for phase in self.inputs.phases)

    def stop_traffic(self) -> None:
        for device in self.dep.devices.values():
            device.stop_telemetry()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
class Run:
    """One closed batch: built and warmed up on construction, then stepped
    through its timed horizon slice by slice, then drained and reconciled.

    ``ledger`` (a :class:`tracing.Ledger`, wrappers in place) makes it the
    traced run: its totals restart with the timed region and are folded
    slice by slice with the same host-speed scale as the wall clock.
    """

    def __init__(
        self,
        spec: Spec,
        inputs: Inputs,
        horizon: float | None = None,
        observe: bool = True,
        ledger: Any = None,
    ) -> None:
        self.spec = spec
        self.horizon = spec.horizon if horizon is None else horizon
        self.ledger = ledger
        wrap = ledger.harness_wrap if ledger is not None else (lambda fn: fn)
        built: list[World] = []

        def set_up() -> None:
            world = World(spec, inputs, self.horizon, observe=observe, harness_wrap=wrap)
            world.sim.run(until=spec.warmup)
            built.append(world)

        gc.collect()
        self.setup_wall_s, self.setup_s = hostclock.measure(set_up)
        self.world = built[0]
        self.slices = max(SLICES // 8, round(SLICES * self.horizon / spec.horizon))
        self.wall_s = self.ref_s = 0.0
        #: Reference seconds of the even and of the odd slices.
        self.half_ref_s = [0.0, 0.0]
        self._parity = 0
        self._base = self._progress()
        gc.collect()
        if ledger is not None:
            ledger.reset()

    def _progress(self) -> tuple[int, int, int, int]:
        world, sim = self.world, self.world.sim
        hops = sum(link.delivered for link in _links(world))
        return world.delivered(), sim.events_processed, hops, sim.journal.recorded

    def step(self, index: int) -> None:
        """Advance the simulation through slice ``index`` of the horizon."""
        world = self.world
        last = index == self.slices - 1
        until = world.end if last else self.spec.warmup + self.horizon * (index + 1) / self.slices
        world.sim.run(until=until)

    def account(self, wall_s: float, scale: float) -> None:
        """Book one slice: its wall clock and the host-speed scale it ran at."""
        self.wall_s += wall_s
        self.ref_s += wall_s * scale
        self.half_ref_s[self._parity] += wall_s * scale
        if self.ledger is not None:
            self.ledger.fold(scale, self._parity)
        self._parity ^= 1

    def finish(self) -> dict[str, Any]:
        world, sim = self.world, self.world.sim
        layers = self.ledger.snapshot() if self.ledger is not None else None
        half_calls = list(self.ledger.half_calls) if self.ledger is not None else None
        packets, events, hops, journaled = (
            now - then for now, then in zip(self._progress(), self._base)
        )
        world.stop_traffic()
        sim.run(until=world.end + DRAIN)
        world.harvester.harvest()
        result = _reconcile(world)
        result["host"] = {
            "setup_s": self.setup_s,
            "setup_wall_s": self.setup_wall_s,
            "run_s": self.ref_s,
            "run_wall_s": self.wall_s,
            "half_run_s": self.half_ref_s,
            "pkts_per_s": packets / self.ref_s,
            "pkts_per_wall_s": packets / self.wall_s,
        }
        result["counters"].update(events=events, packets=packets)
        result["counts"].update(
            {
                "netsim.sim.events_per_pkt": events / packets,
                "netsim.link.delivered": hops,
                "obs.journal.recorded_per_pkt": journaled / packets,
            }
        )
        result["layers"] = layers
        result["half_calls"] = half_calls
        return result


def run_once(
    spec: Spec,
    inputs: Inputs,
    horizon: float | None = None,
    observe: bool = True,
    ledger: Any = None,
) -> dict[str, Any]:
    """Build, warm up, time the horizon, drain, reconcile."""
    run = Run(spec, inputs, horizon, observe=observe, ledger=ledger)
    hostclock.run_sliced(run)
    return run.finish()


def _links(world: World) -> list[Any]:
    """Every link of the site: all of them hang off the one edge switch."""
    return list(world.dep.edge.ports.values())


def _reconcile(world: World) -> dict[str, Any]:
    """Exact (simulated, repeatable) metrics, counts and correctness inputs."""
    dep, spec, sim = world.dep, world.spec, world.sim
    sent = world.reports_sent()
    received = dep.hub.rx_count + world.collector.rx_count
    launched = len(world.exploits)
    succeeded = sum(1 for result, __ in world.exploits if result.succeeded)
    unexpected = sum(1 for result, expected in world.exploits if result.succeeded and expected)

    emitted: Counter = Counter()
    processed = enforcing_emitted = enforcing_lost = 0
    if dep.cluster is not None:
        emitted = Counter(alert.kind for alert in dep.cluster.alerts)
        arrived = {c.labels["kind"]: int(c.value) for c in sim.metrics.series("controller_alerts")}
        ingest = dep.controller.ingest
        refused = sum(ingest.dropped) + ingest.depth() if ingest is not None else 0
        processed = sum(arrived.values()) - refused
        enforcing_emitted = sum(n for kind, n in emitted.items() if kind != "telemetry")
        enforcing_arrived = sum(n for kind, n in arrived.items() if kind != "telemetry")
        enforcing_refused = (
            sum(ingest.dropped[:2]) + ingest.depth() if ingest is not None else 0
        )
        enforcing_lost = enforcing_emitted - enforcing_arrived + enforcing_refused
    total_emitted = sum(emitted.values())

    attempted = sent + launched + enforcing_emitted
    failed = (sent - received) + unexpected + enforcing_lost
    exact: dict[str, float] = {
        "attack_success_frac": succeeded / launched,
        "failed_frac": failed / attempted,
    }
    if total_emitted:
        exact["evidence_loss_frac"] = (total_emitted - processed) / total_emitted
    for name, samples in (("delivery", world.latencies), ("tte", world.harvester.times_to_enforcement())):
        for label, p in (("p50", 0.5), ("p99", 0.99)):
            value = percentile(samples, p)
            if value is not None:
                exact[f"{name}_{label}_ms"] = value * 1e3

    counters: dict[str, Any] = {
        "reports_sent": sent,
        "reports_received": received,
        "exploits_launched": launched,
        "exploits_succeeded": succeeded,
        "alerts_emitted": total_emitted,
        "alerts_processed": processed,
        "enforcing_alerts_lost": enforcing_lost,
        "chains": len(world.harvester.times_to_enforcement()),
        "delivery_samples": len(world.latencies),
        "compromised": sum(1 for d in dep.devices.values() if d.is_compromised()),
        "journal_sha256": journal_digest(sim.journal),
        "attempted": attempted,
        "failed": failed,
    }
    counts: dict[str, float] = {
        "netsim.switch.punted": dep.edge.punted,
        "netsim.switch.table_size": dep.edge.table_size(),
    }
    if dep.cluster is not None:
        cluster, channel = dep.cluster, dep.channel
        stats = dep.controller.pipeline.stats
        inspected = sum(mbox.processed for mbox in cluster.mboxes.values())
        dropped = sum(mbox.dropped for mbox in cluster.mboxes.values())
        counters.update(
            mboxes=dep.manager.active_count(),
            reactions=len(dep.controller.reactions),
            opening_blocked=sum(1 for result, __ in world.exploits[:2] if not result.succeeded),
        )
        counts.update(
            {
                "mboxes.host.tunnelled_in": cluster.tunnelled_in,
                "mboxes.host.drop_frac": dropped / inspected if inspected else 0.0,
                "sdn.channel.retry_frac": channel.retries / channel.sent,
                "sdn.channel.giveups": channel.giveups,
                "core.pipeline.rounds": stats.rounds,
                "core.pipeline.coalesce_ratio": (
                    stats.coalesced / (stats.coalesced + stats.ingested) if stats.ingested else 0.0
                ),
                "core.pipeline.applies": stats.applies,
            }
        )
        ingest = dep.controller.ingest
        if ingest is not None:
            counts["core.overload.shed"] = sum(ingest.dropped)
        if dep.host_stream is not None:
            stream = dep.host_stream.stats()
            counts["obs.stream.replayed_batches"] = dep.controller.stream.stats()["replayed_batches"]
            counts["obs.stream.evicted"] = sum(lane["lost"] for lane in stream["lanes"].values())
        if dep.health_plane is not None:
            counters["health_rollup"] = dep.health_plane.health.rollup()
    return {"exact": exact, "counters": counters, "counts": counts}
