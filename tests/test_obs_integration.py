"""Integration tests: tracing and metrics across the whole control loop.

The headline property: one attack produces one causal trace whose spans
walk the full chain -- attack packet (``detect``), control-channel ingest
(``ingest-alert``), context escalation (``escalate``), the pipeline's
evaluation round (``evaluate``), posture actuation (``actuate``) and the
data-plane commit (``epoch-commit`` under two-phase consistent updates) --
with honest per-stage simulated latencies.
"""

from repro.core.deployment import SecuredDeployment
from repro.core.metrics import summarize
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, window_actuator
from repro.netsim.simulator import Simulator
from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS
from repro.policy.posture import block_commands


def _cross_device_deployment(n_cams: int = 1, **build_kwargs):
    """``win`` hardens when any camera turns suspicious."""
    dep = SecuredDeployment.build(**build_kwargs)
    builder = PolicyBuilder()
    cams = [f"cam{i}" for i in range(n_cams)]
    for cam in cams:
        builder.device(cam)
    builder.device("win")
    for cam in cams:
        builder.when(f"ctx:{cam}", SUSPICIOUS).give("win", block_commands("open"))
    dep.policy = builder.build()
    for cam in cams:
        dep.add_device(smart_camera, cam)
    dep.add_device(window_actuator, "win")
    dep.add_attacker()
    dep.finalize()
    return dep, cams


def _brute_force(dep, target: str, n: int = 3) -> None:
    attacker = dep.attackers["attacker"]
    for i in range(n):
        dep.sim.schedule(
            1.0 + 0.2 * i,
            attacker.fire_and_forget,
            protocol.login("attacker", target, "admin", "wrong"),
        )


class TestFullCausalChain:
    def test_attack_to_epoch_commit_single_trace(self):
        """The acceptance chain, under two-phase consistent updates."""
        dep, cams = _cross_device_deployment(consistent_updates=True)
        dep.secure(
            "cam0",
            build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
        )
        _brute_force(dep, "cam0", n=3)  # 3 rejected logins => suspicious
        dep.run(until=30.0)

        assert dep.controller.context_of("cam0") == SUSPICIOUS
        assert dep.orchestrator.posture_of("win").name == "block-commands"

        tracer = dep.sim.tracer
        trace_id = tracer.last_trace("win")
        assert trace_id is not None
        spans = tracer.spans(trace_id)
        stages = [s.stage for s in spans]
        for stage in (
            "detect",
            "ingest-alert",
            "escalate",
            "evaluate",
            "actuate",
            "epoch-commit",
        ):
            assert stage in stages, f"missing stage {stage!r} in {stages}"

        by_stage = {s.stage: s for s in spans}
        # The chain is causally ordered in simulated time...
        assert by_stage["detect"].start <= by_stage["ingest-alert"].start
        assert by_stage["ingest-alert"].end <= by_stage["escalate"].start
        assert by_stage["escalate"].start <= by_stage["evaluate"].end
        assert by_stage["evaluate"].end <= by_stage["epoch-commit"].end
        # ...with honest per-stage latencies: the alert crossed a real
        # control channel and the epoch needed two phases of switch RTTs.
        assert by_stage["ingest-alert"].latency > 0
        assert by_stage["epoch-commit"].latency > 0
        assert all(s.latency >= 0 for s in spans)
        # Stage attribution names the actors.
        assert by_stage["detect"].device == "cam0"
        assert by_stage["escalate"].attrs["context"] == SUSPICIOUS
        assert by_stage["actuate"].attrs["posture"] == "block-commands"
        assert by_stage["epoch-commit"].attrs["rules_installed"] > 0

    def test_direct_mode_records_flow_install_stage(self):
        dep, cams = _cross_device_deployment()  # no consistent updates
        dep.secure(
            "cam0",
            build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
        )
        _brute_force(dep, "cam0", n=3)
        dep.run(until=30.0)
        trace_id = dep.sim.tracer.last_trace("win")
        assert trace_id is not None
        stages = {s.stage for s in dep.sim.tracer.spans(trace_id)}
        assert "flow-install" in stages
        assert "epoch-commit" not in stages

    def test_render_shows_whole_chain(self):
        dep, cams = _cross_device_deployment()
        dep.secure(
            "cam0",
            build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
        )
        _brute_force(dep, "cam0", n=3)
        dep.run(until=30.0)
        text = dep.sim.tracer.render(dep.sim.tracer.last_trace("win"))
        assert "detect" in text and "actuate" in text
        assert "ms)" in text  # per-stage latencies are printed


class TestCoalescingInRegistry:
    def test_same_instant_changes_one_round_one_apply_in_counters(self):
        """Satellite of PR 1's coalescing guarantee: the *registry* (not
        just PipelineStats) must show one round and <=1 apply per device."""
        dep, cams = _cross_device_deployment(n_cams=4)
        ctrl = dep.controller
        metrics = dep.sim.metrics
        labels = ctrl.pipeline.metric_labels

        def applies_by_device():
            return {
                inst.labels["device"]: inst.value
                for inst in metrics.series("pipeline_device_applies")
            }

        rounds_before = metrics.value("pipeline_rounds", **labels)
        applies_before = applies_by_device()
        for cam in cams:
            dep.sim.schedule(1.0, ctrl.set_context, cam, SUSPICIOUS)
        dep.run(until=2.0)

        assert metrics.value("pipeline_rounds", **labels) - rounds_before == 1
        assert metrics.value("pipeline_coalesced", **labels) >= 3
        # per-device apply counters: exactly one apply for win, none double
        deltas = {
            device: value - applies_before.get(device, 0)
            for device, value in applies_by_device().items()
        }
        assert deltas["win"] == 1
        assert all(delta <= 1 for delta in deltas.values())
        # the coalesced round observed its (single-device) batch
        batch = metrics.series("pipeline_batch_size")[0]
        assert batch.count >= 1 and batch.max >= 1


class TestRegistryBackedSummary:
    def test_summarize_matches_component_counters(self):
        dep, cams = _cross_device_deployment()
        dep.secure(
            "cam0",
            build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
        )
        _brute_force(dep, "cam0", n=3)
        dep.run(until=30.0)
        report = summarize(dep)
        assert report.alerts_by_kind.get("login-rejected", 0) >= 3
        assert report.packets_tunnelled == dep.cluster.tunnelled_in
        assert report.mbox["active"] == dep.manager.active_count()
        assert report.metrics["enabled"] is True
        assert "pipeline_rounds" in report.metrics["gauges"]

    def test_summarize_falls_back_when_observability_disabled(self):
        dep, cams = _cross_device_deployment(sim=Simulator(observe=False))
        dep.secure(
            "cam0",
            build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
        )
        _brute_force(dep, "cam0", n=3)
        dep.run(until=30.0)
        assert dep.sim.tracer.last_trace("win") is None  # tracing off too
        report = summarize(dep)
        # identical operator view, sourced from the component counters
        assert report.alerts_by_kind.get("login-rejected", 0) >= 3
        assert report.packets_tunnelled == dep.cluster.tunnelled_in
        assert report.mbox["active"] == dep.manager.active_count()
        assert report.metrics == {}

    def test_disabled_observability_identical_behaviour(self):
        """Instrumentation must never change simulation outcomes."""
        outcomes = []
        for sim in (Simulator(observe=True), Simulator(observe=False)):
            dep, cams = _cross_device_deployment(sim=sim)
            dep.secure(
                "cam0",
                build_recommended_posture("password_proxy", "cam0", new_password="S3c!"),
            )
            _brute_force(dep, "cam0", n=3)
            dep.run(until=30.0)
            outcomes.append(
                (
                    dep.sim.events_processed,
                    dep.controller.context_of("cam0"),
                    dep.orchestrator.posture_of("win").name,
                    dep.controller.pipeline.stats.rounds,
                )
            )
        assert outcomes[0] == outcomes[1]
