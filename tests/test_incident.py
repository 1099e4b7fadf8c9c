"""Incident forensics: reconstructing the full detection chain from evidence.

The acceptance property: ``reconstruct(sim, device)`` rebuilds the paper's
Figure 2 loop -- detect -> ingest-alert -> escalate -> evaluate -> actuate
-> flow-install (direct mode) / epoch-commit (consistent updates) -- for
the Fig. 4 password-proxy scenario and the Fig. 3 FSM (signature IDS)
scenario, by joining the journal, trace and metrics planes, with honest
per-stage simulated latencies.
"""

import json

from repro.core.deployment import SecuredDeployment
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, window_actuator
from repro.netsim.simulator import Simulator
from repro.obs.incident import reconstruct
from repro.obs.journal import Journal
from repro.obs.trace import STAGE_ORDER
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS
from repro.policy.posture import block_commands


def _cross_device_deployment(**build_kwargs):
    """``win`` hardens when the camera turns suspicious (Fig. 4 shape)."""
    dep = SecuredDeployment.build(**build_kwargs)
    builder = PolicyBuilder()
    builder.device("cam0")
    builder.device("win")
    builder.when("ctx:cam0", SUSPICIOUS).give("win", block_commands("open"))
    dep.policy = builder.build()
    dep.add_device(smart_camera, "cam0")
    dep.add_device(window_actuator, "win")
    dep.add_attacker()
    dep.finalize()
    return dep


def _brute_force(dep, target: str, n: int = 3) -> None:
    attacker = dep.attackers["attacker"]
    for i in range(n):
        dep.sim.schedule(
            1.0 + 0.2 * i,
            attacker.fire_and_forget,
            protocol.login("attacker", target, "admin", "wrong"),
        )


def _password_proxy_incident(**build_kwargs):
    """Run the Fig. 4 scenario and reconstruct both endpoints."""
    dep = _cross_device_deployment(**build_kwargs)
    dep.secure(
        "cam0",
        build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
    )
    _brute_force(dep, "cam0", n=3)
    dep.run(until=30.0)
    assert dep.orchestrator.posture_of("win").name == "block-commands"
    return dep


def _full_chain(incident, terminal: str):
    """The chain holding every stage through ``terminal``, or None."""
    wanted = STAGE_ORDER[: STAGE_ORDER.index("actuate") + 1] + (terminal,)
    for chain in incident.chains:
        if all(stage in chain.stage_names for stage in wanted):
            return chain
    return None


class TestPasswordProxyScenario:
    """Fig. 4: brute-forced camera escalates, the window actuator hardens."""

    def test_full_chain_reconstructed_direct_mode(self):
        dep = _password_proxy_incident()
        incident = reconstruct(dep.sim, "cam0")

        chain = _full_chain(incident, "flow-install")
        assert chain is not None, [c.stage_names for c in incident.chains]
        # Per-stage simulated latencies: honest, ordered, non-negative.
        by_stage = {s["stage"]: s for s in chain.stages}
        assert by_stage["ingest-alert"]["latency"] > 0  # crossed the channel
        assert all(s["latency"] >= 0 for s in chain.stages)
        assert by_stage["detect"]["start"] <= by_stage["actuate"]["start"]
        assert chain.total_latency > 0
        # Causality edges follow stage order within the chain.
        edges = chain.edges()
        assert ("detect", "ingest-alert") in edges
        # Journal evidence joined onto the chain by trace id.
        assert chain.journal_seqs, "no journal entries joined to the chain"

        # The journal plane aggregated the device's evidence.
        assert incident.alerts_by_kind.get("login-rejected", 0) >= 3
        assert incident.context == SUSPICIOUS
        timeline_kinds = {e["kind"] for e in incident.timeline}
        assert {"alert", "alert-ingest", "escalation", "context"} <= timeline_kinds
        # Timeline is ordered by simulated time, seq breaking ties.
        stamps = [(e["at"], e["seq"]) for e in incident.timeline]
        assert stamps == sorted(stamps)

    def test_epoch_commit_variant_under_consistent_updates(self):
        dep = _password_proxy_incident(consistent_updates=True)
        incident = reconstruct(dep.sim, "cam0")
        chain = _full_chain(incident, "epoch-commit")
        assert chain is not None, [c.stage_names for c in incident.chains]
        assert "flow-install" not in chain.stage_names
        assert chain.stages[-1]["attrs"].get("rules_installed", 0) > 0
        # The data-plane commit paid two phases of switch RTTs.
        assert {s["stage"]: s for s in chain.stages}["epoch-commit"]["latency"] > 0

    def test_actuated_device_view_with_policy_explainer(self):
        dep = _password_proxy_incident()
        state = dep.controller.pipeline.system_state()
        incident = reconstruct(dep.sim, "win", policy=dep.policy, state=state)

        # The posture transition is journaled on win's own timeline...
        assert incident.posture == "block-commands"
        assert incident.applies >= 1
        postures = [e for e in incident.timeline if e["kind"] == "posture"]
        assert postures and postures[-1]["detail"]["posture"] == "block-commands"
        # ...and the policy plane explains *why*.
        assert incident.winning_rule is not None
        assert incident.winning_rule["posture"] == "block-commands"
        assert "cam0" in incident.winning_rule["predicate"]

    def test_incident_survives_json_roundtrip(self):
        dep = _password_proxy_incident()
        state = dep.controller.pipeline.system_state()
        incident = reconstruct(dep.sim, "cam0", policy=dep.policy, state=state)
        payload = incident.as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_render_is_operator_readable(self):
        dep = _password_proxy_incident()
        text = reconstruct(dep.sim, "cam0").render()
        assert "incident report: cam0" in text
        assert "detect" in text and "actuate" in text
        assert "ms)" in text  # per-stage latencies
        assert "login-rejected" in text


class TestFsmSignatureScenario:
    """Fig. 3: a crowd-learned signature fires, the FSM hardens the window."""

    def _run(self):
        from repro.learning.repository import CrowdRepository
        from repro.learning.signatures import default_credential_signature

        dep = _cross_device_deployment()
        cam = dep.devices["cam0"]
        repo = CrowdRepository(dep.sim)
        repo.publish(default_credential_signature(cam.sku), reporter="other-site")
        dep.attach_repository(repo)
        dep.secure("cam0", build_recommended_posture("monitor", "cam0", sku=cam.sku))
        dep.run(until=0.5)
        dep.attackers["attacker"].fire_and_forget(
            protocol.login("attacker", "cam0", "admin", "admin")
        )
        dep.run(until=30.0)
        assert dep.controller.context_of("cam0") == SUSPICIOUS
        return dep

    def test_signature_match_chain_reconstructed(self):
        dep = self._run()
        incident = reconstruct(dep.sim, "cam0")
        assert incident.alerts_by_kind.get("signature-match", 0) >= 1
        chain = _full_chain(incident, "flow-install")
        assert chain is not None, [c.stage_names for c in incident.chains]
        assert incident.context == SUSPICIOUS

    def test_fsm_rule_explains_the_hardening(self):
        dep = self._run()
        state = dep.controller.pipeline.system_state()
        incident = reconstruct(dep.sim, "win", policy=dep.policy, state=state)
        assert incident.winning_rule is not None
        assert incident.winning_rule["posture"] == "block-commands"
        assert incident.posture == "block-commands"


class TestJournalBoundedUnderLoad:
    def test_retention_bounded_while_chain_evidence_survives(self):
        """A tiny ring under sustained attack stays bounded; reconstruction
        degrades gracefully to whatever evidence is retained."""
        sim = Simulator()
        sim.journal = Journal(clock=lambda: sim.now, segment_size=8, max_segments=2)
        dep = _cross_device_deployment(sim=sim)
        dep.secure(
            "cam0",
            build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
        )
        attacker = dep.attackers["attacker"]
        for i in range(120):
            sim.schedule(
                1.0 + 0.5 * i,
                attacker.fire_and_forget,
                protocol.login("attacker", "cam0", "admin", "wrong"),
            )
        dep.run(until=90.0)

        journal = sim.journal
        assert journal.recorded > journal.segment_size * journal.max_segments
        assert len(journal) <= journal.segment_size * (journal.max_segments + 1)
        assert journal.evicted == journal.recorded - len(journal)
        # The lazy gauges follow the swapped-in journal.
        assert sim.metrics.value("journal_retained") == len(journal)
        # Reconstruction still works over the surviving ring.
        incident = reconstruct(sim, "cam0")
        assert incident.timeline, "retained evidence should still reconstruct"
        assert all(
            e["seq"] > journal.evicted - journal.segment_size
            for e in incident.timeline
        )
