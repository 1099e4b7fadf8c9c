"""Evidence is shared, not copied, on its way to the controller.

A telemetry report's readings, an alert's detail and a stream record's
body are built once and only read after that.  The µmbox host keeps the
alert, ``_forward_alert`` puts its detail into the body as is, a view
delta's body holds the report's readings as the tap saw them, the durable
stream resends one wire dict per record and its consumer hands that same
body to the controller.  The one copy on the way is the channel's shallow
copy of each message body (``test_message_bodies_are_copied``).

Sharing is safe only while nothing on the way edits what it shares.  These
seeded e9-small runs, plain and durable, check that: at the end of the run
every alert's detail, every delta's readings and every body the controller
took in still equals a deep copy taken when it was created.
"""

from __future__ import annotations

import copy

import pytest

from tests.test_hot_path_equivalence import build_e9_small


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
def test_no_alert_detail_or_delivered_body_changes_after_it_is_sent(durable):
    dep, __ = build_e9_small(telemetry_period=2.0, durable_telemetry=durable)
    alerts, deltas, delivered = [], [], []
    forward_alert, forward_delta = dep.cluster.alert_sink, dep.cluster.delta_sink

    def emit_alert(alert):
        alerts.append((alert.detail, copy.deepcopy(alert.detail)))
        forward_alert(alert)

    def emit_delta(device, state, readings):
        deltas.append((readings, copy.deepcopy(readings)))
        forward_delta(device, state, readings)

    controller = dep.controller
    on_alert, apply_delta = controller._on_alert, controller._apply_delta

    def take_in_alert(body, sent_at):
        delivered.append((body, copy.deepcopy(body)))
        on_alert(body, sent_at)

    def take_in_delta(body):
        delivered.append((body, copy.deepcopy(body)))
        apply_delta(body)

    dep.cluster.alert_sink, dep.cluster.delta_sink = emit_alert, emit_delta
    controller._on_alert, controller._apply_delta = take_in_alert, take_in_delta
    dep.run(until=120.0)

    assert alerts and deltas
    assert len(delivered) == len(alerts) + len(deltas)
    assert [shared for shared, __ in alerts + deltas] == [snap for __, snap in alerts + deltas]
    assert [body for body, __ in delivered] == [snap for __, snap in delivered]
    # The controller reads the alert's own detail and the report's own
    # readings: nothing copied them.
    shared = {id(value) for value, __ in alerts + deltas}
    assert all(
        id(body["detail"] if "detail" in body else body["readings"]) in shared
        for body, __ in delivered
    )
