"""Tests for the IoTSec controller's policy loop."""

import pytest

from repro.core.deployment import SecuredDeployment
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug, window_actuator
from repro.obs.stream import VIEW_DELTA
from repro.policy.builder import PolicyBuilder
from repro.policy.context import COMPROMISED, NORMAL, SUSPICIOUS
from repro.policy.posture import block_commands


@pytest.fixture
def dep():
    deployment = SecuredDeployment.build()
    deployment.add_device(smart_camera, "cam")
    deployment.add_device(smart_plug, "plug")
    deployment.add_attacker()
    deployment.finalize()
    return deployment


class TestContextEscalation:
    def test_contexts_start_normal(self, dep):
        assert dep.controller.context_of("cam") == NORMAL

    def test_set_context_never_silently_lowers(self, dep):
        ctrl = dep.controller
        ctrl.set_context("cam", COMPROMISED)
        ctrl.set_context("cam", SUSPICIOUS)  # lower severity: ignored
        assert ctrl.context_of("cam") == COMPROMISED
        ctrl.clear_context("cam")  # explicit admin reset works
        assert ctrl.context_of("cam") == NORMAL

    def test_threshold_escalation_via_alerts(self, dep):
        ctrl = dep.controller
        for i in range(4):
            ctrl._on_alert(
                {"device": "cam", "kind": "login-rejected", "detail": {}},
                sent_at=float(i),
            )
        # threshold is 3 within 60s -> suspicious after the 3rd
        assert ctrl.context_of("cam") == SUSPICIOUS

    def test_window_expiry(self, dep):
        ctrl = dep.controller
        ctrl._on_alert({"device": "cam", "kind": "login-rejected", "detail": {}}, 0.0)
        ctrl._on_alert({"device": "cam", "kind": "login-rejected", "detail": {}}, 100.0)
        ctrl._on_alert({"device": "cam", "kind": "login-rejected", "detail": {}}, 200.0)
        # never 3 within any 60s window
        assert ctrl.context_of("cam") == NORMAL

    def test_single_alert_rules(self, dep):
        ctrl = dep.controller
        ctrl._on_alert({"device": "plug", "kind": "signature-match", "detail": {}}, 0.0)
        assert ctrl.context_of("plug") == SUSPICIOUS


class TestPolicyLoop:
    def test_context_change_redeploys_posture(self, dep):
        ctrl = dep.controller
        initial = dep.orchestrator.posture_of("cam")
        assert initial is None or initial.is_permissive
        ctrl.set_context("cam", SUSPICIOUS)
        posture = dep.orchestrator.posture_of("cam")
        assert posture is not None and posture.name == "stateful_firewall"
        assert len(ctrl.reactions) >= 1
        assert ctrl.reactions[-1].device == "cam"

    def test_compromised_gets_quarantine(self, dep):
        dep.controller.set_context("cam", COMPROMISED)
        assert dep.orchestrator.posture_of("cam").name == "quarantine"

    def test_quarantine_actually_blocks(self, dep):
        dep.controller.set_context("cam", COMPROMISED)
        dep.run(until=0.2)
        attacker = dep.attackers["attacker"]
        replies = []
        attacker.request(
            protocol.login("attacker", "cam", "admin", "admin"), replies.append
        )
        dep.run(until=2.0)
        assert replies == []

    def test_reaction_latency_positive_and_small(self, dep):
        dep.controller.set_context("cam", SUSPICIOUS)
        record = dep.controller.reactions[-1]
        assert record.latency >= 0.0

    def test_unrelated_view_keys_ignored(self, dep):
        before = len(dep.controller.reactions)
        dep.controller.view.set("dev:cam", "recording")
        dep.controller.view.set("irrelevant:key", "x")
        assert len(dep.controller.reactions) == before


class TestTelemetryIngestion:
    def test_telemetry_updates_device_state_and_env(self, dep):
        ctrl = dep.controller
        ctrl._apply_delta(
            {
                "device": "cam",
                "kind": VIEW_DELTA,
                "state": "recording",
                "readings": {"person": "present"},
            }
        )
        assert ctrl.view.get("dev:cam") == "recording"
        assert ctrl.view.get("env:occupancy") == "present"

    def test_environment_watch_feeds_view(self, dep):
        dep.env.discrete("occupancy").set("present")
        dep.run(until=1.0)
        assert dep.controller.view.get("env:occupancy") == "present"


class TestCustomPolicy:
    def test_cross_device_rule_fires(self):
        dep = SecuredDeployment.build()
        policy = (
            PolicyBuilder()
            .device("cam")
            .device("win")
            .env("occupancy", ("absent", "present"))
            .when("ctx:cam", SUSPICIOUS)
            .give("win", block_commands("open"))
            .build()
        )
        dep.policy = policy
        dep.add_device(smart_camera, "cam")
        dep.add_device(window_actuator, "win")
        dep.finalize()
        dep.controller.set_context("cam", SUSPICIOUS)
        assert dep.orchestrator.posture_of("win").name == "block-commands"

    def test_enforce_all_applies_current_state(self):
        dep = SecuredDeployment.build()
        dep.add_device(smart_camera, "cam")
        dep.finalize()
        dep.controller.view.set("ctx:cam", SUSPICIOUS)
        dep.controller.enforce_all()
        assert dep.orchestrator.posture_of("cam").name == "stateful_firewall"
