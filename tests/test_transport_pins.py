"""Pins for the two durable-delivery scenarios no other fixture holds.

Bench E14's arms (a multi-hour control blackout with and without the
durable telemetry stream) and bench E15's coordinator blackout are
seeded and byte-deterministic; ``fixtures/transport_pins.json`` holds
their result dicts.  A change to how the control plane delivers must
either leave them as they are or re-record the fixture and say which
fields moved and why.
"""

import importlib.util
import json
from pathlib import Path

from repro.faults.scenario import run_federation_blackout_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "transport_pins.json").read_text())


def _bench(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def e14_arms():
    import sys

    sys.path.insert(0, str(ROOT / "benchmarks"))  # the bench imports ``_util``
    try:
        return _bench("bench_e14_durable_telemetry").run_arms()
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))


def e15_blackout():
    return run_federation_blackout_scenario(sites=4)


def test_e14_arms_match_the_pin():
    assert e14_arms() == GOLDEN["e14_arms"]


def test_e15_blackout_matches_the_pin():
    assert e15_blackout() == GOLDEN["e15_blackout"]
