"""E14: durable telemetry -- zero lost changes across a multi-hour partition.

One secured home (three telemetry-reporting devices under monitor
postures), one control-plane blackout from ``long_partition_plan``: the
channel between the µmbox cluster and the controller is severed for 2.5
simulated hours starting at t=60 s, and a camera brute-force wave fires
*mid-outage*, so the enforcement evidence itself is born while the wire
is down.  The home keeps changing through the outage: someone walks in
or out between every two reports, the camera sees it and the hub's
recipes switch the plug and the thermostat with them, so every report is
a view delta (a tap forwards changes only).  Two arms over the identical
schedule:

- **lossy** arm -- the seed behavior: alerts and view deltas ride the
  channel's unreliable fast path and every one sent during the partition
  vanishes with the wire.  The controller never learns of the attack;
  the camera keeps its permissive monitor posture forever.
- **durable** arm -- ``durable_telemetry=True``: the cluster's
  store-and-forward buffer absorbs the outage (urgent lane for
  enforcement evidence, bulk lane for view deltas), the stream replays
  from the controller's acked offset once the window heals, and the
  late-but-in-order alerts escalate the camera to an enforcing posture.
  After the heal a reputation-flagged peer and a malformed batch are
  injected so the dead-letter queue carries its three quarantines (the
  CI artifact ``dlq_sample.jsonl`` is exported from this arm).

Headline metrics, all sim-deterministic: ``telemetry_loss`` (view deltas
the cluster's taps sent minus deltas the controller applied -- zero in
the durable arm, hundreds in the lossy arm), the bulk lane's
``peak_depth`` (bounded memory: the buffer must ride out the outage
without evicting), and whether the attacked camera ends the run under an
enforcing posture.  The gate in ``benchmarks/regression.py`` pins
``telemetry_loss == 0`` and ``peak_depth <= E14_PEAK_BUFFER_LIMIT``.
"""

from __future__ import annotations

from typing import Any

from _util import print_table, record

from repro.attacks.exploits import BruteForceLogin
from repro.core.deployment import DeviceSpec, SiteSpec
from repro.devices.library import smart_camera, smart_plug, thermostat
from repro.faults.plan import long_partition_plan
from repro.netsim.simulator import Simulator
from repro.policy.ifttt import Recipe

PARTITION_START = 60.0
PARTITION_HOURS = 2.5
HEAL_AT = PARTITION_START + PARTITION_HOURS * 3600.0   # 9060 s
ATTACK_AT = 1800.0                                     # mid-outage
HORIZON = HEAL_AT + 500.0                              # heal + catch-up
DRAIN = 30.0                                           # in-flight settle
TELEMETRY_PERIOD = 15.0
FACTORIES = (smart_camera, smart_plug, thermostat)
#: What the hub does when someone comes or goes: the plug (``dev1``) and
#: the thermostat (``dev2``) follow the occupancy the camera sees.
RECIPES = (
    ("present", "on", "heat"),
    ("absent", "off", "off"),
)

COLUMNS = (
    "emitted",
    "received",
    "telemetry_loss",
    "attacked_posture",
    "delivered",
    "replayed_batches",
    "peak_depth",
    "urgent_lost",
    "bulk_lost",
    "dlq_quarantined",
    "events",
)


def run_scenario(durable: bool, dlq_sample_path: str | None = None) -> dict[str, Any]:
    """One arm of the durability experiment; fully sim-deterministic."""
    sim = Simulator()
    options = {"report_to": "hub", "telemetry_period": TELEMETRY_PERIOD}
    dep = SiteSpec(
        durable_telemetry=durable,
        devices=tuple(DeviceSpec(f, f"dev{i}", options) for i, f in enumerate(FACTORIES)),
        start_telemetry=True,
        attackers=("attacker",),
        postures="baseline",  # monitor postures: telemetry flows through µmboxes
    ).deploy(sim)
    attacker = dep.attackers["attacker"]
    for level, plug, heater in RECIPES:
        dep.hub.add_recipe(Recipe(f"plug-{level}", "env:occupancy", level, "dev1", plug))
        dep.hub.add_recipe(Recipe(f"heat-{level}", "env:occupancy", level, "dev2", heater))
    occupancy = dep.env.discrete("occupancy")

    def walk() -> None:
        occupancy.set("absent" if occupancy.level == "present" else "present")

    # Half a period out of phase with the reports: each one sees a change.
    sim.schedule_at(TELEMETRY_PERIOD / 2, sim.every, TELEMETRY_PERIOD, walk)

    long_partition_plan(start=PARTITION_START, hours=PARTITION_HOURS).apply(dep)
    # A dictionary with no hit: the full wave fires (12 attempts in 1.2 s),
    # enough for the login-attempt escalation rule (5 within 30 s).
    brute = BruteForceLogin(
        dictionary=(
            "123456", "password", "qwerty", "letmein", "welcome", "window-pass",
            "oven-pass", "lock-pass", "0000", "1111", "iot123", "hunter2",
        )
    )
    sim.schedule_at(ATTACK_AT, lambda: brute.launch(attacker, "dev0", sim))

    if durable:
        consumer = dep.controller.stream
        assert consumer is not None
        consumer.flag_host("rogue-host")

        def inject_after_heal() -> None:
            # A reputation-flagged peer and a buggy one: three quarantines
            # (reputation, bad-device, bad-kind) for the DLQ artifact.
            dep.channel.send(
                "rogue-host",
                dep.CONTROLLER,
                "stream",
                {
                    "host": "rogue-host",
                    "lane": "bulk",
                    "records": [
                        {
                            "offset": 1,
                            "at": sim.now,
                            "body": {
                                "device": "dev0",
                                "kind": "telemetry",
                                "mbox": "spoofed",
                                "detail": {"state": "recording"},
                                "trace": None,
                            },
                        }
                    ],
                },
            )
            dep.channel.send(
                "buggy-host",
                dep.CONTROLLER,
                "stream",
                {
                    "host": "buggy-host",
                    "lane": "bulk",
                    "records": [
                        {"offset": 1, "at": sim.now, "body": {"device": "", "kind": "x"}},
                        {"offset": 2, "at": sim.now, "body": {"device": "dev1", "kind": ""}},
                    ],
                },
            )

        sim.schedule_at(HEAL_AT + 60.0, inject_after_heal)

    dep.run(until=HORIZON)
    # Close the tap, then settle: in-flight batches and acks land so the
    # emitted/received ledger compares completed work, not wire residue.
    for device in dep.devices.values():
        device.stop_telemetry()
    dep.run(until=HORIZON + DRAIN)

    # View deltas the taps sent and the controller applied, by the same
    # registry series in both arms, whatever the transport underneath.
    emitted = int(sum(c.value for c in sim.metrics.series("mbox_view_deltas")))
    received = int(sum(c.value for c in sim.metrics.series("controller_view_deltas")))
    posture = dep.orchestrator.posture_of("dev0")
    result: dict[str, Any] = {
        "arm": "durable" if durable else "lossy",
        "emitted": emitted,
        "received": received,
        "telemetry_loss": emitted - received,
        "attacked_posture": posture.name if posture is not None else None,
        "events": sim.events_processed,
        "delivered": 0,
        "duplicates": 0,
        "replayed_batches": 0,
        "outstanding": 0,
        "peak_depth": 0,
        "urgent_lost": 0,
        "bulk_lost": 0,
        "capacity": 0,
        "dlq_quarantined": 0,
        "dlq_by_reason": {},
        "replay_lag_max_s": 0.0,
    }
    if durable:
        stream = dep.host_stream
        consumer = dep.controller.stream
        dlq = dep.controller.dlq
        assert stream is not None and consumer is not None and dlq is not None
        lanes = stream.stats()["lanes"]
        cstats = consumer.stats()
        result.update(
            delivered=cstats["delivered"],
            duplicates=cstats["duplicates"],
            replayed_batches=cstats["replayed_batches"],
            outstanding=stream.outstanding(),
            peak_depth=max(lane["peak_depth"] for lane in lanes.values()),
            urgent_lost=lanes["urgent"]["lost"] + lanes["urgent"]["overflow"],
            bulk_lost=lanes["bulk"]["lost"],
            capacity=lanes["bulk"]["capacity"],
            dlq_quarantined=dlq.stats()["quarantined"],
            dlq_by_reason=dlq.stats()["by_reason"],
            replay_lag_max_s=max(
                (e.fields["lag"] for e in sim.journal.entries(kind="stream-replay")),
                default=0.0,
            ),
        )
        if dlq_sample_path is not None:
            dlq.export_jsonl(dlq_sample_path)
    return result


def run_arms(dlq_sample_path: str | None = None) -> list[dict[str, Any]]:
    return [
        run_scenario(durable=False),
        run_scenario(durable=True, dlq_sample_path=dlq_sample_path),
    ]


def test_e14_durable_telemetry(scenario_benchmark):
    results = scenario_benchmark(run_arms)
    lossy, durable = results

    print_table(
        "E14: 2.5 h control-plane blackout -- lossy channel vs durable stream",
        ["Metric", "lossy", "durable"],
        [(col, lossy.get(col), durable.get(col)) for col in COLUMNS],
    )
    print(
        f"replay lag (max): {durable['replay_lag_max_s']:.0f} s; "
        f"bulk peak depth {durable['peak_depth']} of {durable['capacity']} capacity"
    )
    record(
        scenario_benchmark,
        "arms",
        {r["arm"]: r for r in results},
    )

    # Determinism: the same schedule reproduces the same run, bit for bit
    # -- this is what lets CI gate on these numbers across machines.
    assert run_arms() == results

    # Both arms send the same view deltas up to the heal; they diverge
    # only afterwards, when the durable arm's enforcement re-postures the
    # attacked camera (its chain stops tapping telemetry).
    assert lossy["emitted"] > 1500 and durable["emitted"] > 1500
    # Only the durable arm applies every change it sent: zero lost
    # changes across the multi-hour partition, against hundreds vanished
    # with the lossy wire.
    assert durable["telemetry_loss"] == 0
    assert lossy["telemetry_loss"] > 100
    # Bounded memory: the buffer rode out the outage inside its ring --
    # nothing evicted from either lane, no unbounded growth.
    assert durable["urgent_lost"] == 0 and durable["bulk_lost"] == 0
    assert 0 < durable["peak_depth"] <= durable["capacity"]
    assert durable["outstanding"] == 0  # fully drained after the heal
    # Replay happened (late batches, hours of lag) rather than fresh luck.
    assert durable["replayed_batches"] > 0
    assert durable["replay_lag_max_s"] > 3600.0
    # The mid-outage attack: invisible forever on the lossy wire, enforced
    # from replayed evidence on the durable one.
    assert lossy["attacked_posture"] == "monitor"
    assert durable["attacked_posture"] not in (None, "monitor")
    # The post-heal rogue and malformed injections all landed in the DLQ.
    assert durable["dlq_quarantined"] == 3
    assert set(durable["dlq_by_reason"]) == {"reputation", "bad-device", "bad-kind"}
