"""What the traced ledger run calls must keep resolving.

``benchmarks/ledger/run.py --trace 1`` wraps every public entry point its
``tracing.ENTRY_POINTS`` names (``Ledger.install``) and times the
``obs.trace`` layer with ``probes.trace_span``.  A renamed method, a
private one, or a tracer call whose signature moved makes that run exit 1.
These tests make the same resolutions and calls, so the break shows here
rather than only in a traced run.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger"


def _load(name: str):
    """``benchmarks/ledger/<name>.py``, loaded by path as ``ledger_<name>``.
    Its sibling imports (``hostclock``, ``workloads``) resolve while it
    loads and leave ``sys.modules`` afterwards, so they shadow nothing in
    later tests."""
    before = set(sys.modules)
    sys.path.insert(0, str(LEDGER))
    try:
        spec = importlib.util.spec_from_file_location(f"ledger_{name}", LEDGER / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(LEDGER))
        for added in set(sys.modules) - before:
            if (LEDGER / f"{added}.py").exists():
                del sys.modules[added]
    return module


tracing = _load("tracing")
POINTS = [point for points in tracing.ENTRY_POINTS.values() for point in points]


def _resolve(point: str):
    """``module:Class.method`` as ``Ledger.install`` resolves it."""
    module_name, __, qualified = point.partition(":")
    class_name, __, attr = qualified.partition(".")
    return getattr(importlib.import_module(module_name), class_name), attr


@pytest.mark.parametrize("point", POINTS)
def test_every_entry_point_is_a_public_method(point):
    cls, attr = _resolve(point)
    assert not attr.startswith("_"), f"{point}: not a public name"
    fn = getattr(cls, attr)
    assert callable(fn), point
    inspect.signature(fn)  # the wrapper is generated from it


def test_install_wraps_every_entry_point_and_restore_undoes_it():
    resolved = [_resolve(point) for point in POINTS]
    before = [(cls, attr, cls.__dict__.get(attr)) for cls, attr in resolved]
    ledger = tracing.Ledger()
    ledger.install()
    try:
        for cls, attr in resolved:
            assert hasattr(getattr(cls, attr), "__wrapped__"), f"{cls.__name__}.{attr}"
    finally:
        ledger.restore()
    assert [(cls, attr, cls.__dict__.get(attr)) for cls, attr in resolved] == before


def test_the_trace_span_probe_makes_its_tracer_calls():
    """``obs.trace.span_ns``: ``start_trace(device=, kind=)`` and
    ``span(trace, stage, start, end, device=, round=)``, as the probe
    makes them."""
    probes = _load("probes")
    probe, unit, __ = probes.PROBES["obs.trace.span_ns"]
    assert probe is probes.trace_span and unit == "ns"
    assert probe()(16) >= 0.0
