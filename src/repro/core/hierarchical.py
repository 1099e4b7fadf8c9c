"""Hierarchical control (paper section 5.1).

"One possible approach to handle the consistency and update challenges is
to logically partition the set of IoT devices depending on the frequency in
the interaction dependencies.  Thus, we can have a hierarchical control
architecture where frequently interacting components are handled together
by a low-level controller and infrequent interactions are handled at the
global controller."

The model: each controller is a single-server FIFO queue with a per-event
service time, reached over a control channel with a one-way latency.  Local
controllers sit on-premise (sub-millisecond reach); the global controller
is remote (tens of milliseconds).  An event is handled locally when every
policy rule it can trigger stays inside the event's partition; otherwise it
is forwarded up.  Bench E6 measures reaction latency distributions and
global-controller load, flat vs hierarchical, as event rate grows.

Partitioning comes from the policy itself:
:func:`partition_by_independence` reuses
:func:`repro.policy.pruning.independence_groups` -- variables that never
co-occur in a rule can safely live under different local controllers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.policy.fsm import PolicyFSM
from repro.policy.pruning import independence_groups, relevant_variables

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.simulator import Simulator


@dataclass
class HandledEvent:
    """One event's journey through the control hierarchy."""

    event_id: int
    device: str
    emitted_at: float
    handled_at: float
    handled_by: str
    escalated: bool

    @property
    def latency(self) -> float:
        return self.handled_at - self.emitted_at


class ControllerQueue:
    """A single-server FIFO event processor in simulated time."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        service_time: float,
        channel_latency: float,
    ) -> None:
        if service_time < 0 or channel_latency < 0:
            raise ValueError("latencies must be >= 0")
        self.sim = sim
        self.name = name
        self.service_time = service_time
        self.channel_latency = channel_latency
        self.busy_until = 0.0
        self.processed = 0
        self.busy_time = 0.0

    def submit(self, emitted_at: float) -> float:
        """Feed one event; returns the simulated completion time.

        ``emitted_at`` is when the event *left its source* -- the device
        for a first hop, the local controller's completion time for a
        forwarded hop -- so a chained submission starts its channel
        crossing then, not at whatever ``sim.now`` happens to be when the
        caller runs.
        """
        arrival = emitted_at + self.channel_latency
        start = max(arrival, self.busy_until)
        done = start + self.service_time
        self.busy_until = done
        self.processed += 1
        self.busy_time += self.service_time
        return done

    def utilization(self, horizon: float) -> float:
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / horizon)


def partition_by_independence(policy: PolicyFSM) -> dict[str, int]:
    """Assign each device to a partition from the policy's independence
    groups.  Devices whose context variables share a group must share a
    local controller."""
    groups = independence_groups(policy)
    assignment: dict[str, int] = {}
    for index, group in enumerate(sorted(groups, key=lambda g: sorted(g)[0])):
        for key in group:
            if key.startswith("ctx:"):
                assignment[key[4:]] = index
    # Devices with no rules interact with nothing, so each owns an
    # isolated singleton partition -- lumping them into one shared bucket
    # would serialize unrelated devices behind a single local controller.
    next_free = len(groups)
    for device in sorted(policy.devices):
        if device not in assignment:
            assignment[device] = next_free
            next_free += 1
    return assignment


def crossing_devices(policy: PolicyFSM, partition: dict[str, int]) -> set[str]:
    """Devices whose posture depends on variables owned by *another*
    partition: their events must always escalate to the global controller."""
    # Which partition owns each variable?  A variable belongs to the
    # partition of any device context in its independence group; env
    # variables referenced only by one partition's rules belong there.
    owner: dict[str, int] = {}
    for device, part in partition.items():
        owner[f"ctx:{device}"] = part
    for device in policy.devices:
        part = partition.get(device)
        if part is None:
            continue
        for key in relevant_variables(policy, device):
            owner.setdefault(key, part)

    crossing = set()
    for device in policy.devices:
        part = partition.get(device)
        for key in relevant_variables(policy, device):
            if owner.get(key, part) != part:
                crossing.add(device)
                break
        # Also: if this device's context drives another partition's device.
        own_key = f"ctx:{device}"
        for other in policy.devices:
            if other == device:
                continue
            if own_key in relevant_variables(policy, other) and partition.get(
                other
            ) != part:
                crossing.add(device)
                break
    return crossing


class HierarchicalControl:
    """Local controllers per partition; escalation for crossing devices.

    With no partition (``HierarchicalControl(sim, {}, set())``) every event
    goes straight to the global controller at emission: flat control.
    """

    def __init__(
        self,
        sim: "Simulator",
        partition: dict[str, int],
        crossing: set[str],
        service_time: float = 0.0005,
        local_latency: float = 0.001,
        global_latency: float = 0.020,
    ) -> None:
        self.sim = sim
        self.partition = dict(partition)
        self.crossing = set(crossing)
        self.locals: dict[int, ControllerQueue] = {}
        for part in sorted(set(partition.values())):
            self.locals[part] = ControllerQueue(
                sim, f"local-{part}", service_time, local_latency
            )
        self.global_controller = ControllerQueue(
            sim, "global", service_time, global_latency
        )
        self.handled: list[HandledEvent] = []
        self._ids = 0

    def emit(self, device: str) -> HandledEvent:
        self._ids += 1
        part = self.partition.get(device)
        escalate = device in self.crossing or part is None
        if escalate:
            # The local controller triages, then forwards up: the global
            # hop's channel crossing starts when local triage *completes*,
            # not at emission time -- otherwise escalation latency hides
            # the entire local stage.
            forwarded_at = self.sim.now
            if part is not None:
                forwarded_at = self.locals[part].submit(self.sim.now)
            done = self.global_controller.submit(forwarded_at)
            handled_by = "global"
        else:
            done = self.locals[part].submit(self.sim.now)
            handled_by = f"local-{part}"
        record = HandledEvent(
            event_id=self._ids,
            device=device,
            emitted_at=self.sim.now,
            handled_at=done,
            handled_by=handled_by,
            escalated=escalate,
        )
        self.handled.append(record)
        return record

    def global_load(self) -> int:
        return self.global_controller.processed

    def local_load(self) -> int:
        return sum(q.processed for q in self.locals.values())


def latency_percentiles(records: list[HandledEvent]) -> dict[str, float]:
    """Median/p99/max reaction latency for a run's handled events."""
    if not records:
        return {"p50": 0.0, "p99": 0.0, "max": 0.0}
    latencies = sorted(r.latency for r in records)

    def pct(p: float) -> float:
        # Nearest-rank: the smallest value with at least p*n observations
        # at or below it is element ceil(p*n) (1-based).  ``int(p*n)``
        # is off by one -- it makes p99 equal max at n=100 and biases p50
        # high on even-length samples.
        index = min(len(latencies) - 1, max(0, math.ceil(p * len(latencies)) - 1))
        return latencies[index]

    return {"p50": pct(0.50), "p99": pct(0.99), "max": latencies[-1]}
