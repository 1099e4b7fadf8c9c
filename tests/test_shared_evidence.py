"""Evidence is shared, not copied, on its way to the controller.

A telemetry report's readings, an alert's detail and a stream record's
body are built once and only read after that.  The µmbox host keeps the
alert, ``_forward_alert`` puts its detail into the body as is, the durable
stream resends one wire dict per record and its consumer hands that same
body to the controller.  The one copy on the way is the channel's shallow
copy of each message body (``test_message_bodies_are_copied``).

Sharing is safe only while nothing on the way edits what it shares.  These
seeded e9-small runs, plain and durable, check that: at the end of the run
every alert's detail and every body the controller took in still equals a
deep copy taken when it was created.
"""

from __future__ import annotations

import copy

import pytest

from tests.test_hot_path_equivalence import build_e9_small


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
def test_no_alert_detail_or_delivered_body_changes_after_it_is_sent(durable):
    dep, __ = build_e9_small(telemetry_period=2.0, durable_telemetry=durable)
    emitted, delivered = [], []
    forward = dep.cluster.alert_sink

    def emit(alert):
        emitted.append((alert, copy.deepcopy(alert.detail)))
        forward(alert)

    controller = dep.controller
    on_alert = controller._on_alert

    def take_in(body, sent_at):
        delivered.append((body, copy.deepcopy(body)))
        on_alert(body, sent_at)

    dep.cluster.alert_sink = emit
    controller._on_alert = take_in
    if durable:
        controller.stream.deliver = take_in
    dep.run(until=120.0)

    kinds = {alert.kind for alert, __ in emitted}
    assert "telemetry" in kinds and len(kinds) > 1
    assert len(delivered) == len(emitted)
    assert [alert.detail for alert, __ in emitted] == [snap for __, snap in emitted]
    assert [body for body, __ in delivered] == [snap for __, snap in delivered]
    # The controller reads the alert's own detail: nothing copied it.
    details = {id(alert.detail) for alert, __ in emitted}
    assert all(id(body["detail"]) in details for body, __ in delivered)
