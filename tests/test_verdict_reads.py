"""The µmbox data path reads verdicts as module constants.

``Verdict`` is an :class:`enum.Enum`.  On CPython 3.10 and 3.11 the enum
metaclass defines ``__getattr__``, so every ``Verdict.PASS`` read goes
through the slow attribute hook (~15x a module global read) and cannot
be specialized; 3.12 dropped the hook, so a timed benchmark on 3.12 never
sees it.  This guard counts bytecode instead: no function an inspected
packet runs through may load the ``Verdict`` global and then its
``PASS``/``DROP`` member.  Use ``repro.mboxes.base.PASS`` / ``DROP`` (the
same objects) there.
"""

from __future__ import annotations

import dis
import types

import pytest

from repro.mboxes import base
from repro.mboxes.base import Mbox, MboxHost, Verdict
from repro.mboxes.manager import MBOX_KINDS
from tests.test_blind_flows import element_of

_MEMBERS = {"PASS", "DROP"}


def enum_member_reads(fn) -> list[str]:
    """``Verdict.PASS``/``Verdict.DROP`` reads in ``fn`` and the code
    objects nested in it, as ``"<code name>@<bytecode offset>"``."""
    found: list[str] = []
    pending = [fn.__code__]
    while pending:
        code = pending.pop()
        previous = None
        for instr in dis.get_instructions(code):
            if (
                previous is not None
                and previous.opname == "LOAD_GLOBAL"
                and previous.argval == "Verdict"
                and instr.opname == "LOAD_ATTR"
                and instr.argval in _MEMBERS
            ):
                found.append(f"{code.co_name}@{instr.offset}")
            previous = instr
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


HOT_PATH = {
    "Mbox.process": Mbox.process,
    "MboxHost.on_packet": MboxHost.on_packet,
    "MboxHost._process_inner": MboxHost._process_inner,
}


_DROP = Verdict.DROP


def test_the_detector_sees_an_enum_member_read():
    def slow(verdict):
        return verdict is Verdict.DROP

    def fast(verdict):
        return verdict is _DROP

    assert enum_member_reads(slow) and not enum_member_reads(fast)


def test_the_constants_are_the_enum_members():
    assert getattr(base, "PASS", None) is Verdict.PASS
    assert getattr(base, "DROP", None) is Verdict.DROP


@pytest.mark.parametrize("name", sorted(HOT_PATH))
def test_chain_and_host_read_no_enum_member(name):
    assert enum_member_reads(HOT_PATH[name]) == []


@pytest.mark.parametrize("kind", MBOX_KINDS)
def test_element_process_reads_no_enum_member(kind):
    process = type(element_of(kind)).process
    assert enum_member_reads(process) == []

