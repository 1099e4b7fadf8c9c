"""Every attribute site on a packet's hop sees one type.

CPython 3.11 specializes an attribute read or write per site, for the
one type it last saw there.  A site that sees a ``Switch``, an
``MboxHost``, an ``IoTDevice`` and a ``Host`` in turn -- a counter bumped
on whichever node sends or receives, a method of the ``Node`` base class
that every forwarder calls -- stays generic and pays the slow lookup on
every packet.  So the link owns the hop's accounting (it is always a
``Link``), and a forwarder hands a packet to the link of a port it
resolved itself instead of going through ``Node.send``.

3.10 has no specializing interpreter and 3.12's timings differ, so a
timed benchmark does not catch a site going polymorphic everywhere.  This
guard reads bytecode instead:

- ``Link.transmit`` and ``Link._deliver`` touch no attribute of ``sender``
  or ``receiver``, except calling ``receiver.on_packet``;
- the forwarders' hot methods make no ``self.send`` call.
"""

from __future__ import annotations

import dis
import types

import pytest

from repro.devices.base import IoTDevice
from repro.mboxes.base import MboxHost
from repro.netsim.link import Link
from repro.netsim.switch import Switch

_ATTR_OPS = {"LOAD_ATTR", "LOAD_METHOD", "STORE_ATTR", "DELETE_ATTR"}
#: What may sit between loading an object and reading its attribute: the
#: copy an augmented assignment makes (``x.a += 1``).
_STACK_COPIES = {"COPY", "DUP_TOP"}


def attribute_sites(fn, names: set[str]) -> list[str]:
    """Attribute reads, writes and method loads on the locals ``names`` in
    ``fn`` and the code objects nested in it, as ``"<local>.<attribute>"``."""
    found: list[str] = []
    pending = [fn.__code__]
    while pending:
        code = pending.pop()
        owner = None
        for instr in dis.get_instructions(code):
            if instr.opname in _ATTR_OPS and owner is not None:
                found.append(f"{owner}.{instr.argval}")
            if instr.opname in _STACK_COPIES:
                continue
            owner = None
            if instr.opname.startswith("LOAD_FAST"):
                # 3.13 fuses two loads into one instruction: the last is on top.
                local = instr.argval[-1] if isinstance(instr.argval, tuple) else instr.argval
                if local in names:
                    owner = local
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


def test_the_detector_sees_reads_writes_and_method_loads():
    def polymorphic(self, sender, receiver, packet):
        sender.tx_count += 1
        receiver.rx_bytes = packet.size
        receiver.on_packet(packet, 0)
        return sender.name

    def monomorphic(self, sender, receiver, packet):
        self.tx += 1
        receiver.on_packet(packet, 0)
        return sender is self

    assert sorted(attribute_sites(polymorphic, {"sender", "receiver"})) == [
        "receiver.on_packet",
        "receiver.rx_bytes",
        "sender.name",
        "sender.tx_count",
    ]
    assert attribute_sites(monomorphic, {"sender", "receiver"}) == ["receiver.on_packet"]


@pytest.mark.parametrize("fn", [Link.transmit, Link._deliver], ids=lambda fn: fn.__name__)
def test_the_link_touches_no_attribute_of_its_ends(fn):
    sites = attribute_sites(fn, {"sender", "receiver"})
    assert [site for site in sites if site != "receiver.on_packet"] == []


FORWARDERS = {
    "Switch._apply": Switch._apply,
    "MboxHost._process_inner": MboxHost._process_inner,
    "IoTDevice._report": IoTDevice._report,
}


@pytest.mark.parametrize("name", sorted(FORWARDERS))
def test_forwarders_hand_packets_to_their_link(name):
    assert "self.send" not in attribute_sites(FORWARDERS[name], {"self"})
