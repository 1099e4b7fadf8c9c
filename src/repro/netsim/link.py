"""Point-to-point links with latency, serialization delay, and queueing.

A link connects exactly two nodes.  Delivery time is
``latency + size / bandwidth`` (bandwidth in bytes/second; ``None`` means
infinite capacity, which most IoT control-traffic experiments use since they
are latency- not bandwidth-bound).

Bandwidth-limited links serialize: concurrent transmissions in the same
direction queue behind each other (per-direction FIFO), and a drop-tail
bound (``max_queue_delay``) discards packets that would wait longer --
which is what makes volumetric attacks (DNS reflection) physically
meaningful: they do not just add bytes, they crowd benign traffic off the
wire.  Links can be administratively downed to model failures.

The link owns a hop's accounting: ``transmit`` stamps a packet's
``created_at`` on its first send and counts what each end sends,
``_deliver`` counts what each end receives, in plain per-direction
counters.  :attr:`delivered` and the nodes' ``rx_count``/``tx_count``/
``rx_bytes``/``tx_bytes`` are sums over them, read only off the hot path.

Hot-path notes: the class is slotted, ``transmit``/``_deliver`` read the
``_up`` flag directly (the ``up`` property stays for the admin surface),
and touch no attribute of the nodes at either end but the receiver's
``on_packet`` -- an attribute site that sees a switch, a µmbox host and a
device in turn cannot be specialized (``tests/test_hop_sites.py``).  The
per-direction busy horizons are two plain floats, and ``transmit`` pushes
the delivery's heap entry itself (see :mod:`repro.netsim.simulator`)
instead of calling ``schedule``, with ``_deliver`` bound once at
construction rather than once a hop.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.node import Node
    from repro.netsim.simulator import Simulator


class Link:
    """A bidirectional point-to-point link."""

    __slots__ = (
        "sim",
        "a",
        "b",
        "latency",
        "bandwidth",
        "max_queue_delay",
        "_up",
        "tx_a",
        "tx_bytes_a",
        "tx_b",
        "tx_bytes_b",
        "rx_a",
        "rx_bytes_a",
        "rx_b",
        "rx_bytes_b",
        "dropped",
        "queue_drops",
        "_busy_until_ab",
        "_busy_until_ba",
        "port_a",
        "port_b",
        "metric_labels",
        "_deliver_bound",
        "on_state_change",
    )

    def __init__(
        self,
        sim: "Simulator",
        a: "Node",
        b: "Node",
        latency: float = 0.001,
        bandwidth: float | None = None,
        port_a: int | None = None,
        port_b: int | None = None,
        max_queue_delay: float = 0.5,
    ) -> None:
        if not latency >= 0:  # NaN too: transmit pushes ``now + latency`` unchecked
            raise ValueError(f"latency must be >= 0 (got {latency})")
        if bandwidth is not None and bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive (got {bandwidth})")
        if max_queue_delay < 0:
            raise ValueError("max_queue_delay must be >= 0")
        if a is b:
            # The counters are per end: a self-loop's two ends are one node.
            raise ValueError(f"{a!r} cannot be linked to itself")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.max_queue_delay = max_queue_delay
        self._up = True
        #: What each end sent and received, packets and bytes.
        self.tx_a = self.tx_bytes_a = self.tx_b = self.tx_bytes_b = 0
        self.rx_a = self.rx_bytes_a = self.rx_b = self.rx_bytes_b = 0
        self.dropped = 0
        self.queue_drops = 0
        self._busy_until_ab = 0.0  # a -> b serialization horizon
        self._busy_until_ba = 0.0  # b -> a serialization horizon
        #: ``self._deliver`` made once: every hop's heap entry carries it.
        self._deliver_bound = self._deliver
        #: Called after every up/down flip: the topology routing over this
        #: link drops its routes there (``Topology.connect`` sets it).
        self.on_state_change: Callable[[], None] | None = None
        self.port_a = port_a if port_a is not None else a.free_port()
        self.port_b = port_b if port_b is not None else b.free_port()
        a.attach(self.port_a, self)
        b.attach(self.port_b, self)
        # Observability: per-link delivery/drop gauges (callbacks -- the
        # transmit path keeps incrementing its plain counters).
        metrics = sim.metrics
        self.metric_labels = {
            "link": metrics.unique(f"{a.name}:{self.port_a}<->{b.name}:{self.port_b}", "link")
        }
        metrics.gauge("link_delivered", fn=lambda: self.delivered, **self.metric_labels)
        metrics.gauge("link_dropped", fn=lambda: self.dropped, **self.metric_labels)
        metrics.gauge("link_queue_drops", fn=lambda: self.queue_drops, **self.metric_labels)

    @property
    def delivered(self) -> int:
        """Packets delivered to either end."""
        return self.rx_a + self.rx_b

    def counts(self, node: "Node") -> tuple[int, int, int, int]:
        """``(rx packets, rx bytes, tx packets, tx bytes)`` at ``node``'s end."""
        if node is self.a:
            return self.rx_a, self.rx_bytes_a, self.tx_a, self.tx_bytes_a
        if node is self.b:
            return self.rx_b, self.rx_bytes_b, self.tx_b, self.tx_bytes_b
        raise ValueError(f"{node!r} is not attached to this link")

    @property
    def up(self) -> bool:
        return self._up

    @up.setter
    def up(self, value: bool) -> None:
        if value != self._up:
            self._up = value
            if self.on_state_change is not None:
                self.on_state_change()

    def other_end(self, node: "Node") -> "Node":
        """The node at the far side from ``node``."""
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not attached to this link")

    def transmit(self, sender: "Node", packet: Packet) -> None:
        """Schedule delivery of ``packet`` to the far end.

        On bandwidth-limited links, transmissions in the same direction
        serialize FIFO; a packet that would queue longer than
        ``max_queue_delay`` is drop-tailed.  Either way the packet counts
        as sent, and its first send stamps ``created_at``.
        """
        if packet.created_at is None:
            # First send only: a forwarded packet (or a copy of one) keeps
            # its origin's stamp -- also when that stamp is t = 0.0.
            packet.created_at = self.sim.now
        from_a = sender is self.a
        if from_a:
            self.tx_a += 1
            self.tx_bytes_a += packet.size
        else:
            self.tx_b += 1
            self.tx_bytes_b += packet.size
        if not self._up:
            self.dropped += 1
            return
        sim = self.sim
        delay = self.latency
        if self.bandwidth is not None:
            now = sim.now
            start = self._busy_until_ab if from_a else self._busy_until_ba
            if start < now:
                start = now
            if start - now > self.max_queue_delay:
                self.queue_drops += 1
                self.dropped += 1
                return
            done = start + packet.size / self.bandwidth
            if from_a:
                self._busy_until_ab = done
            else:
                self._busy_until_ba = done
            delay = (done - now) + self.latency
        # The entry ``Simulator.schedule`` would build, pushed from here: one
        # Python call less per hop.  ``delay`` is >= 0 by construction.
        if from_a:
            args = (self.b, packet, self.port_b)
        else:
            args = (self.a, packet, self.port_a)
        heappush(sim._heap, [sim.now + delay, next(sim._seq), self._deliver_bound, args])

    def _deliver(self, receiver: "Node", packet: Packet, in_port: int) -> None:
        if not self._up:
            self.dropped += 1
            return
        if receiver is self.b:
            self.rx_b += 1
            self.rx_bytes_b += packet.size
        else:
            self.rx_a += 1
            self.rx_bytes_a += packet.size
        receiver.on_packet(packet, in_port)

    def fail(self) -> None:
        """Administratively down the link; in-flight packets are dropped."""
        self.up = False

    def restore(self) -> None:
        """Bring the link back up."""
        self.up = True

    def __repr__(self) -> str:
        state = "up" if self._up else "DOWN"
        return f"Link({self.a.name}<->{self.b.name}, {self.latency * 1e3:.2f}ms, {state})"
