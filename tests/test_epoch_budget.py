"""The slow-path budget of one consistent-mode epoch.

Counted, like ``tests/test_packet_budget.py``, on e9-small at 2 s telemetry
with two-phase updates on, warmed up: one ``repin`` of one device, then a
fixed simulated window.  What is counted is what an epoch proportional to
the table would multiply by the fleet -- ``FlowRule`` objects constructed,
rules installed and collected, and slow ``Switch.lookup`` calls (the data
path probes the megaflow cache inline, so a ``lookup`` call *is* a cache
miss).  No timing is involved.

While an epoch still re-pushed the switch's whole table the same window
read 57 rules built, installed and removed and 24 slow lookups (every live
flow of the 12-device fleet, once the cache was cleared); without the
re-pin it reads 0 and 0.
"""

from __future__ import annotations

from repro.netsim.switch import Switch
from repro.sdn.flowrule import FlowRule
from tests.test_hot_path_equivalence import build_e9_small

WARMUP = 20.0
WINDOW = 60.0
DEVICE = "dev0"  # a camera behind the password proxy: four rules and one blind flow
GROUP = 5


def test_one_repin_costs_one_devices_rules_and_one_devices_flows(monkeypatch):
    dep, __ = build_e9_small(telemetry_period=2.0, consistent_updates=True)
    dep.run(until=WARMUP)
    edge, updater = dep.edge, dep.orchestrator.updater
    table = edge.table_size()
    epochs = len(updater.reports)
    assert [r.owner for r in edge.rules_for(DEVICE)] == [DEVICE] * GROUP
    cached = dict(edge._lookup_cache)
    own = {key for key in cached if DEVICE in key[:2]}
    assert 0 < len(own) < len(cached) // 4

    counts = {"built": 0, "slow_lookups": 0}
    post_init, lookup = FlowRule.__post_init__, Switch.lookup

    def counting_post_init(rule):
        counts["built"] += 1
        post_init(rule)

    def counting_lookup(switch, packet, in_port):
        counts["slow_lookups"] += 1
        return lookup(switch, packet, in_port)

    monkeypatch.setattr(FlowRule, "__post_init__", counting_post_init)
    monkeypatch.setattr(Switch, "lookup", counting_lookup)
    assert dep.orchestrator.repin(DEVICE)
    dep.run(until=WARMUP + WINDOW)

    (report,) = updater.reports[epochs:]
    assert (report.rules_installed, report.rules_removed) == (GROUP, GROUP)
    assert counts["built"] == GROUP and edge.table_size() == table > 10 * GROUP
    # Install, flip and collection each forgot the device's own flows and
    # nothing else: every other cached answer is the object it was.
    now = edge._lookup_cache
    assert all(key in now and now[key] is cached[key] for key in cached.keys() - own)
    assert 1 <= counts["slow_lookups"] <= len(own)
    assert dep.orchestrator.offload_violations() == []
