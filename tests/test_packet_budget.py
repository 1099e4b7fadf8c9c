"""The per-packet call budget of the conforming-traffic path.

Counts Python-level ``call`` events (``sys.setprofile``) per end-host
packet delivered on a fixed seeded site -- e9-small at 2 s telemetry, warmed
up, over a fixed simulated window -- so a trampoline added to the fast path
(device -> edge -> tunnel -> MboxHost -> chain -> tunnel back -> edge -> hub,
plus the view delta -> channel -> controller -> view leg) fails a
deterministic test instead of a noisy benchmark.  No timing is involved.

Before the path was put on this budget the same window read 74.42 calls a
packet with the security stack on and 27.17 with it off
(``with_iotsec=False``); the budget brought the four-hop path to 52.42 and
plain forwarding to 22.67, and with ``Link.transmit`` and the ``every()``
re-arm pushing their own heap entries (one frame less per hop and per timer
tick) they read 47.26 and 19.51, with no event bus copying every alert
the four-hop path read 46.26, with no metadata record built by the
packet logger 45.76, with the channel pushing an alert's delivery
itself 45.26, and with telemetry sent as change-only view deltas instead
of one alert a report it reads 38.96 now (Python 3.11; the ledger
benchmark's ``home-steady`` mix, 80 devices, read 71.1 -> 49.1 -> 40.4 with
its blind flows offloaded -> 36.2 -> 34.2, and its ``bare-forward`` 23.9 ->
19.4 -> 16.4).
With every ``every()`` recurrence of one period behind one heap entry (its
lane's ``__call__`` fires the head's callback itself, in place of the
recurrence's own ``__call__``), the four paths read what they read before
it: 29.92 (stack), 38.92 (four-hop), 30.19 (durable) and 19.51 (bare).  A
tick that called one more method on its way to the callback would read
1.17 calls a packet more on every path (31.09 stack, 20.67 bare).
With an inspected packet one object -- the chain given the sender's
packet instead of a copy, the envelope turned around instead of a second
one built, every PASS exit of the host falling through to one return
block -- each inspection makes three calls fewer (``Packet.copy``,
``Packet.__init__`` and the host's return method): 28.42 (stack), 35.92
(four-hop), 28.69 (durable), and 19.51 (bare), which inspects nothing.
With the data path forwarding on rules -- a ``normal`` action the switch
resolves itself, where a returned or offloaded packet used to be punted to
the controller's handler and routed by ``Topology.next_hop_port`` -- every
path makes two calls fewer a packet, events unchanged: 25.92 (stack),
33.42 (four-hop), 26.19 (durable) and 17.01 (bare, whose catch-all
``normal`` rule replaced the plain forwarder).  No stack window punts a
packet any more.
With the links counting every hop and the switch, the µmbox host and a
device's report handing a packet straight to the link of a port they
resolved (``Node.send`` is one frame less a hop), the paths read 22.92
(stack), 29.42 (four-hop), 23.19 (durable) and 15.01 (bare), events
unchanged.
Comprehensions are calls before Python 3.12, so the ceilings are upper
bounds taken on the older interpreters; the count can only read lower on a
newer one.

The stack has three budgets.  The home *as built* pins every device, so the
flows its chains are blind to (the cameras' and plugs' reports to the hub,
half of the packets) take two hops: 29.96 calls and 1,512 events (36.26 and
1,680 while every report crossed the channel as an alert).  The same home
*unpinned* -- same chains, no offload rule, every packet through its µmbox
-- is the full four-hop path at 38.96 / 1,872 (45.26 / 2,040 before), so
the tunnel, host and chain stay guarded.  The home as built with
``durable_telemetry=True`` sends every alert and view delta through the
host's stream buffer, the consumer's in-order batches and their acks:
30.26 / 1,506 (41.67 / 1,590 with a record a report; 45.42 while each
record was re-built, re-copied and checked through the ABCs on its way).

The stack paths also pin what the run *keeps*: the growth in GC-tracked
objects over the window, each end read once tracking has settled (see
:func:`tracked_objects`).  It is 0 objects for the 360 packets on each
path (it was 360, the alert log's telemetry ``Alert`` and detail dict per
two packets, until reports became view deltas).  A per-packet list, dict
or record anywhere on the path adds at least 360 and fails
deterministically.

An attacker's state is pinned the same way on an attack-shaped window: a
steady stream of requests that a default-deny firewall drops, read at two
horizons.  What it keeps is its requests in flight (the last
``REPLY_TIMEOUT`` of them), so neither that nor the growth in tracked
objects over the second window depends on how long the stream has run.

The list of entry points that must stay real call boundaries (the ledger
benchmark wraps them) is in ``docs/architecture.md``, "The per-packet call
budget".
"""

from __future__ import annotations

import gc
import sys

from repro.attacks.attacker import REPLY_TIMEOUT
from repro.attacks.exploits import EXPLOITS
from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices.library import smart_plug
from repro.netsim.simulator import Simulator
from repro.netsim.switch import Switch
from tests.test_hot_path_equivalence import build_e9_small

WARMUP = 20.0
WINDOW = 60.0

#: Calls per delivered packet at the commit before the budget, stack on.
PARENT_STACK = 74.42
#: What each path achieves now, plus two calls of slack (the bare ceiling
#: sits below the 27.17 of that commit).
STACK_CEILING = 25.5
FOUR_HOP_CEILING = 32.0
DURABLE_CEILING = 25.8
BARE_CEILING = 17.6
#: GC-tracked objects the window may leave behind on any stack path: the
#: 0 measured now, plus a little slack.
RETAINED_CEILING = 5
#: Simulated work in the window.  The four-hop and bare counts are those
#: of that commit (the budget removed calls, never events); a blind flow
#: saves two events a packet, 180 packets of the 360; the durable stream
#: batches its sends; a report that changes nothing sends no view delta.
STACK_EVENTS, FOUR_HOP_EVENTS, BARE_EVENTS, PACKETS = 1512, 1872, 1140, 360
DURABLE_EVENTS = 1506
#: The attack-shaped window: one request every 1/16 s (an exact binary
#: fraction, so both horizons end on a request), each dropped.
ATTACK_PERIOD = 1 / 16
ATTACK_HORIZON = 60.0
#: Objects the second attack window may leave behind, for its 960 dropped
#: requests: 0 measured, and one object kept a request would be 960.
ATTACK_RETAINED_CEILING = 20


def tracked_objects() -> int:
    """How many objects the collector tracks, once collections stop changing
    that number.  A collection untracks a tuple only when its items already
    are, so a nested tuple (a metric key) sheds one level per collection: a
    single ``gc.collect()`` leaves the count depending on how many
    collections the process happened to run before, by about a hundred."""
    count = -1
    for __ in range(10):
        gc.collect()
        now = len(gc.get_objects())
        if now == count:
            break
        count = now
    return count


def measure(
    with_iotsec: bool, pinned: bool = True, **planes
) -> tuple[float, int, int, int, int]:
    """``(calls per packet, events, packets, retained objects, punts)`` over
    the counted window: the growth in GC-tracked objects, and the packets
    the edge handed to a controller."""
    dep, attacker = build_e9_small(telemetry_period=2.0, with_iotsec=with_iotsec, **planes)
    if not pinned:
        for name in dep.devices:
            dep.orchestrator.unpin(name)
    end_hosts = [*dep.devices.values(), dep.hub, dep.internet, attacker]
    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    dep.run(until=WARMUP)
    packets = sum(node.rx_count for node in end_hosts)
    events = dep.sim.events_processed
    punted = dep.edge.punted
    objects = tracked_objects()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        dep.run(until=WARMUP + WINDOW)
    finally:
        sys.setprofile(previous)
    packets = sum(node.rx_count for node in end_hosts) - packets
    events = dep.sim.events_processed - events
    retained = tracked_objects() - objects
    return calls / packets, events, packets, retained, dep.edge.punted - punted


def test_stack_path_stays_within_its_call_budget():
    calls_per_packet, events, packets, retained, punted = measure(with_iotsec=True)
    assert (events, packets, punted) == (STACK_EVENTS, PACKETS, 0)
    assert calls_per_packet <= STACK_CEILING, (
        f"{calls_per_packet:.2f} Python calls per delivered packet (ceiling "
        f"{STACK_CEILING}): something on the conforming-traffic path gained a call"
    )
    assert retained <= RETAINED_CEILING, (
        f"{retained} objects retained over {packets} packets (ceiling "
        f"{RETAINED_CEILING}): the conforming-traffic path keeps something per packet"
    )


def test_four_hop_path_stays_within_its_call_budget():
    calls_per_packet, events, packets, retained, punted = measure(
        with_iotsec=True, pinned=False
    )
    assert (events, packets, punted) == (FOUR_HOP_EVENTS, PACKETS, 0)
    assert calls_per_packet <= 0.75 * PARENT_STACK
    assert calls_per_packet <= FOUR_HOP_CEILING, (
        f"{calls_per_packet:.2f} Python calls per delivered packet (ceiling "
        f"{FOUR_HOP_CEILING}): tunnel, host or chain gained a call"
    )
    assert retained <= RETAINED_CEILING, (
        f"{retained} objects retained over {packets} packets (ceiling "
        f"{RETAINED_CEILING}): tunnel, host or chain keeps something per packet"
    )


def test_durable_stream_path_stays_within_its_call_budget():
    calls_per_packet, events, packets, retained, punted = measure(
        with_iotsec=True, durable_telemetry=True
    )
    assert (events, packets, punted) == (DURABLE_EVENTS, PACKETS, 0)
    assert calls_per_packet <= DURABLE_CEILING, (
        f"{calls_per_packet:.2f} Python calls per delivered packet (ceiling "
        f"{DURABLE_CEILING}): the durable stream or its consumer gained a call"
    )
    assert retained <= RETAINED_CEILING, (
        f"{retained} objects retained over {packets} packets (ceiling "
        f"{RETAINED_CEILING}): the durable stream keeps something per packet"
    )


def test_bare_forwarding_stays_within_its_call_budget():
    calls_per_packet, events, packets, __, __ = measure(with_iotsec=False)
    assert (events, packets) == (BARE_EVENTS, PACKETS)
    assert calls_per_packet <= BARE_CEILING, (
        f"{calls_per_packet:.2f} Python calls per delivered packet (ceiling "
        f"{BARE_CEILING}): plain forwarding gained a call"
    )


def test_source_binding_is_one_probe_a_switch_hop():
    """The edge's source-binding check is one dict probe each time a switch
    takes a packet: a C call, so the call budgets above never see it."""
    dep, __ = build_e9_small(telemetry_period=2.0)
    dep.run(until=WARMUP)
    tables = {id(switch.bound) for switch in dep.switches()}
    on_packet = Switch.on_packet.__code__
    probes = hops = 0

    def count(frame, event, arg) -> None:
        nonlocal probes, hops
        if event == "call" and frame.f_code is on_packet:
            hops += 1
        elif event == "c_call" and id(getattr(arg, "__self__", None)) in tables:
            probes += 1

    sys.setprofile(count)
    try:
        dep.run(until=WARMUP + WINDOW)
    finally:
        sys.setprofile(None)
    assert hops > PACKETS and probes == hops


def test_attacker_state_does_not_grow_with_the_horizon():
    # observe=False: the journal is a bounded ring that takes longer than a
    # window to fill, so it stays out of the count.  The
    # alert log (one alert a dropped request) is cleared at each read.
    dep = SecuredDeployment.build(sim=Simulator(observe=False))
    dep.add_device(smart_plug, "plug")
    attacker = dep.add_attacker()
    dep.finalize()
    dep.secure(
        "plug",
        build_recommended_posture(
            "stateful_firewall", "plug", trusted_sources=(dep.HUB, dep.CONTROLLER)
        ),
    )
    exploit = EXPLOITS["unauthenticated_command"]
    dep.sim.every(ATTACK_PERIOD, exploit.launch, attacker, "plug", dep.sim, "on")

    def read(horizon: float) -> tuple[int, int]:
        dep.run(until=horizon)
        dep.cluster.alerts.clear()
        return len(attacker._pending), tracked_objects()

    first_pending, first_objects = read(ATTACK_HORIZON)
    second_pending, second_objects = read(2 * ATTACK_HORIZON)
    per_window = int(ATTACK_HORIZON / ATTACK_PERIOD)
    assert attacker.replies_seen == 0 and attacker.requests_sent == 2 * per_window
    assert first_pending == second_pending == int(REPLY_TIMEOUT / ATTACK_PERIOD)
    retained = second_objects - first_objects
    assert retained <= ATTACK_RETAINED_CEILING, (
        f"{retained} objects retained over {per_window} dropped requests (ceiling "
        f"{ATTACK_RETAINED_CEILING}): the attacker keeps something per request"
    )
