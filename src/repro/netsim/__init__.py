"""Discrete-event network simulation substrate.

This package provides the network on which every IoTSec experiment runs:

- :mod:`repro.netsim.simulator` -- the discrete-event engine (simulated time,
  event scheduling, deterministic ordering).
- :mod:`repro.netsim.packet` -- packets and flow identifiers.
- :mod:`repro.netsim.node` -- network nodes (hosts, devices, middleboxes).
- :mod:`repro.netsim.link` -- point-to-point links with latency and capacity.
- :mod:`repro.netsim.switch` -- an OpenFlow-style switch with a flow table.
- :mod:`repro.netsim.topology` -- builders for common topologies.

The simulator substitutes for the paper's physical testbed (OpenDaylight +
real switches); see DESIGN.md section 2.
"""

from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Flow, Packet
from repro.netsim.simulator import Event, Simulator
from repro.netsim.switch import Switch
from repro.netsim.topology import Topology

__all__ = [
    "Event",
    "Flow",
    "Link",
    "Node",
    "Packet",
    "Simulator",
    "Switch",
    "Topology",
]
