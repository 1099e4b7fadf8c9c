"""Tests for the anomaly-detection µmbox element."""

import pytest

from repro.mboxes.anomaly_gate import AnomalyGate
from repro.mboxes.base import MboxContext, Verdict
from repro.netsim.packet import Packet


class _RecordingContext(MboxContext):
    """Regains ``__dict__`` (MboxContext is slotted) so the fixture can
    attach the captured alerts list."""


@pytest.fixture
def make_ctx(sim):
    def build(view_values=None):
        alerts = []
        ctx = _RecordingContext(
            sim=sim,
            mbox_name="m",
            device="thermo",
            view=lambda key: (view_values or {}).get(key),
            emit_alert=alerts.append,
        )
        ctx.alerts = alerts  # type: ignore[attr-defined]
        return ctx

    return build


def cmd(command="heat", src="hub"):
    pkt = Packet(src=src, dst="thermo", dport=8080, payload={"cmd": command})
    pkt.direction = "to_device"
    return pkt


def train(gate, ctx, sim, n=30, command="heat", src="hub"):
    for __ in range(n):
        verdict, __p = gate.process(cmd(command, src), ctx)
        assert verdict is Verdict.PASS


class TestAnomalyGate:
    def test_training_window_never_blocks(self, sim, make_ctx):
        ctx = make_ctx({"env:occupancy": "present"})
        gate = AnomalyGate("thermo", training_window=100.0)
        verdict, __ = gate.process(cmd("weird", "attacker"), ctx)
        assert verdict is Verdict.PASS  # still in training

    def test_known_behaviour_passes_after_training(self, sim, make_ctx):
        ctx = make_ctx({"env:occupancy": "present"})
        gate = AnomalyGate("thermo", training_window=50.0)
        train(gate, ctx, sim)
        sim.schedule(100.0, lambda: None)
        sim.run()
        verdict, __ = gate.process(cmd(), ctx)
        assert verdict is Verdict.PASS
        assert gate.flagged == 0

    def test_novel_source_blocked_after_training(self, sim, make_ctx):
        ctx = make_ctx({"env:occupancy": "present"})
        gate = AnomalyGate("thermo", training_window=50.0)
        train(gate, ctx, sim)
        sim.schedule(100.0, lambda: None)
        sim.run()
        verdict, __ = gate.process(cmd("heat", src="attacker"), ctx)
        assert verdict is Verdict.DROP
        assert ctx.alerts[-1].kind == "anomalous-command"
        assert gate.flagged == 1

    def test_context_conditioning_blocks_empty_house_command(self, sim, make_ctx):
        """Same command, same source -- anomalous only because nobody is home."""
        present_ctx = make_ctx({"env:occupancy": "present"})
        gate = AnomalyGate("thermo", training_window=50.0)
        train(gate, present_ctx, sim, n=60)
        sim.schedule(100.0, lambda: None)
        sim.run()
        absent_ctx = make_ctx({"env:occupancy": "absent"})
        absent_ctx.mbox_name = gate.name
        verdict, __ = gate.process(cmd(), absent_ctx)
        assert verdict is Verdict.DROP

    def test_alert_only_mode(self, sim, make_ctx):
        ctx = make_ctx({})
        gate = AnomalyGate("thermo", training_window=0.0, min_training=1, enforce=False)
        for __ in range(25):  # post-training observations still refine
            gate.process(cmd(), ctx)
        verdict, __ = gate.process(cmd("weird", "attacker"), ctx)
        assert verdict is Verdict.PASS
        assert any(a.kind == "anomalous-command" for a in ctx.alerts)

    def test_non_command_traffic_ignored(self, sim, make_ctx):
        ctx = make_ctx({})
        gate = AnomalyGate("thermo", training_window=0.0, min_training=1)
        pkt = Packet(src="x", dst="thermo", dport=80, payload={"action": "login"})
        pkt.direction = "to_device"
        assert gate.process(pkt, ctx)[0] is Verdict.PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            AnomalyGate("d", training_window=-1.0)


class TestAnomalyGateIntegration:
    def test_gate_escalates_context_via_controller(self, sim):
        from repro.core.deployment import SecuredDeployment
        from repro.devices import protocol
        from repro.devices.library import thermostat
        from repro.policy.posture import MboxSpec, Posture

        dep = SecuredDeployment.build(sim=sim)
        dep.add_device(thermostat, "thermo")
        attacker = dep.add_attacker()
        dep.finalize()
        dep.secure(
            "thermo",
            Posture.make(
                "anomaly",
                MboxSpec.make(
                    "anomaly_gate",
                    device="thermo",
                    training_window=30.0,
                    min_training=5,
                ),
            ),
        )
        # benign traffic during training: the hub drives the thermostat
        hub = dep.hub
        thermo = dep.devices["thermo"]
        hub.pair(thermo)
        session = thermo.sessions and list(thermo.sessions)[0]
        for i in range(22):
            sim.schedule(
                1.0 + i * 1.2,
                lambda c=("heat" if i % 2 else "off"): hub.send(
                    protocol.command("hub", "thermo", c, session=session),
                    next(iter(hub.ports)),
                ),
            )
        dep.run(until=40.0)
        # after training, the attacker replays a command from outside
        for i in range(3):
            sim.schedule(
                1.0 + i,
                lambda: attacker.fire_and_forget(
                    protocol.command("attacker", "thermo", "heat", session=session)
                ),
            )
        dep.run(until=60.0)
        assert any(a.kind == "anomalous-command" for a in dep.alerts("thermo"))
        assert dep.controller.context_of("thermo") == "suspicious"
