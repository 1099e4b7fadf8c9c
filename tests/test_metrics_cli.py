"""Tests for the metrics module and the CLI."""

import json

import pytest

from repro.cli import main
from repro.core.deployment import SecuredDeployment
from repro.core.metrics import nearest_rank, summarize
from repro.core.orchestrator import build_recommended_posture
from repro.devices import protocol
from repro.devices.library import smart_camera, smart_plug
from repro.policy.context import SUSPICIOUS


class TestMetrics:
    def make_dep(self):
        dep = SecuredDeployment.build()
        dep.add_device(smart_camera, "cam")
        dep.add_device(smart_plug, "plug")
        dep.add_attacker()
        dep.finalize()
        return dep

    def test_summarize_empty_deployment(self):
        dep = self.make_dep()
        report = summarize(dep)
        assert len(report.devices) == 2
        assert report.compromised_devices() == []
        assert report.alerts_by_kind == {}
        assert report.mbox["active"] == 0

    def test_summarize_after_attack_and_enforcement(self):
        dep = self.make_dep()
        dep.secure(
            "cam",
            build_recommended_posture("password_proxy", "cam", new_password="S3c!"),
        )
        attacker = dep.attackers["attacker"]
        attacker.fire_and_forget(protocol.login("attacker", "cam", "admin", "admin"))
        dep.run(until=5.0)
        report = summarize(dep)
        assert report.alerts_by_kind.get("login-rejected") == 1
        cam = next(d for d in report.devices if d.name == "cam")
        assert cam.posture == "password_proxy"
        assert cam.alerts == 1
        assert "exposed-credentials" in cam.flaws
        assert report.mbox["active"] == 1
        assert report.packets_tunnelled >= 1

    def test_summarize_context_and_reactions(self):
        dep = self.make_dep()
        dep.controller.set_context("cam", SUSPICIOUS)
        dep.run(until=1.0)
        report = summarize(dep)
        assert "cam" in report.devices_not_normal()
        assert report.reaction_p50_ms is not None

    def test_reaction_p50_is_nearest_rank(self):
        """Two reactions, 1 ms and 3 ms: the median is the lower one, by
        ``nearest_rank``."""
        from repro.core.pipeline import ReactionRecord

        dep = self.make_dep()
        dep.controller.reactions[:] = [
            ReactionRecord("cam", "ctx:cam", 0.0, latency, "monitor") for latency in (0.003, 0.001)
        ]
        report = summarize(dep)
        assert report.reaction_p50_ms == pytest.approx(1.0)
        assert report.reaction_max_ms == pytest.approx(3.0)

    def test_render_and_as_dict(self):
        dep = self.make_dep()
        dep.controller.set_context("plug", SUSPICIOUS)
        report = summarize(dep)
        text = report.render()
        assert "cam" in text and "plug" in text and "suspicious" in text
        data = report.as_dict()
        assert data["mbox"]["active"] == report.mbox["active"]
        assert len(data["devices"]) == 2

    def test_as_dict_json_round_trips(self):
        """Every value must be plain-serializable -- no tuples, no vars()
        leakage of non-JSON types."""
        dep = self.make_dep()
        dep.secure(
            "cam",
            build_recommended_posture("password_proxy", "cam", new_password="S3c!"),
        )
        attacker = dep.attackers["attacker"]
        attacker.fire_and_forget(protocol.login("attacker", "cam", "admin", "admin"))
        dep.run(until=5.0)
        data = summarize(dep).as_dict()
        round_tripped = json.loads(json.dumps(data))
        assert round_tripped == data
        cam = next(d for d in round_tripped["devices"] if d["name"] == "cam")
        assert isinstance(cam["flaws"], list) and "exposed-credentials" in cam["flaws"]
        assert round_tripped["metrics"]["enabled"] is True
        assert round_tripped["packets_dropped_unbound"] == 0

    def test_report_embeds_journal_and_incidents(self):
        dep = self.make_dep()
        dep.secure(
            "cam",
            build_recommended_posture("password_proxy", "cam", new_password="S3c!"),
        )
        attacker = dep.attackers["attacker"]
        for i in range(3):
            dep.sim.schedule(
                1.0 + 0.2 * i,
                attacker.fire_and_forget,
                protocol.login("attacker", "cam", "admin", "wrong"),
            )
        dep.run(until=30.0)
        report = summarize(dep)
        assert report.journal["recorded"] > 0
        assert report.journal["kinds"].get("alert", 0) >= 3
        assert len(report.journal["tail"]) <= 20
        # cam escalated, so it gets an embedded incident digest.
        assert "cam" in report.incidents
        digest = report.incidents["cam"]
        assert digest["alerts_by_kind"].get("login-rejected", 0) >= 3
        assert "detect" in digest["stages"]
        data = report.as_dict()
        assert json.loads(json.dumps(data)) == data

    def test_report_without_observability_has_empty_forensics(self):
        from repro.netsim.simulator import Simulator

        dep = SecuredDeployment.build(sim=Simulator(observe=False))
        dep.add_device(smart_camera, "cam")
        dep.finalize()
        report = summarize(dep)
        assert report.journal == {} and report.incidents == {}

    def test_ground_truth_compromise_visible(self):
        dep = self.make_dep()
        attacker = dep.attackers["attacker"]
        attacker.fire_and_forget(
            protocol.command("attacker", "plug", "on", dport=8080)
        )
        dep.run(until=5.0)
        report = summarize(dep)
        assert report.compromised_devices() == ["plug"]


def test_nearest_rank():
    """Element ceil(p*n), 1-based.  With samples 1..100, p99 is the 99th
    value, not the max (``int(p*n)`` is one rank high), and p50 is the
    50th, not the 51st."""
    samples = [float(v) for v in range(1, 101)]
    assert nearest_rank(samples, 0.50) == 50.0
    assert nearest_rank(samples, 0.99) == 99.0
    assert nearest_rank(samples, 1.0) == 100.0


def test_nearest_rank_small_samples():
    # n=1: every percentile is the single observation
    assert nearest_rank([7.0], 0.5) == nearest_rank([7.0], 0.99) == 7.0
    # n=2: p50 is the lower value (ceil(1.0)-1 = index 0), p99 the upper
    assert nearest_rank([1.0, 9.0], 0.5) == 1.0
    assert nearest_rank([1.0, 9.0], 0.99) == 9.0
    # n=4 even length: p50 = ceil(2)-1 = index 1, the 2nd value
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


class TestCli:
    def test_demo_fig4(self, capsys):
        assert main(["demo", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "current world" in out and "IoTSec" in out
        assert "hijack=True" in out and "hijack=False" in out

    def test_demo_fig5(self, capsys):
        assert main(["demo", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "oven=on" in out and "oven=off" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Belkin Wemo" in out

    def test_model_audit(self, capsys):
        assert main(["model-audit"]) == 0
        out = capsys.readouterr().out
        assert "ATTACKER" in out
        assert "hardening plan" in out

    def test_report(self, capsys):
        assert main(["report"]) == 0
        out = capsys.readouterr().out
        assert "Deployment report" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestObservabilityCli:
    def test_metrics_prometheus_text(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE mbox_alerts counter" in out
        assert "# TYPE pipeline_rounds gauge" in out
        assert "sim_events_processed" in out

    def test_metrics_json(self, capsys):
        assert main(["metrics", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["enabled"] is True
        assert "mbox_alerts" in snap["counters"]
        assert "pipeline_reaction_latency" in snap["histograms"]

    def test_trace_text(self, capsys):
        assert main(["trace", "cam"]) == 0
        out = capsys.readouterr().out
        assert "trace #" in out
        assert "detect" in out and "ingest-alert" in out

    def test_trace_json(self, capsys):
        assert main(["trace", "cam", "--json"]) == 0
        traces = json.loads(capsys.readouterr().out)
        assert traces and all(isinstance(t, list) for t in traces)
        stages = {span["stage"] for t in traces for span in t}
        assert "detect" in stages

    def test_trace_unknown_device_fails_cleanly(self, capsys):
        assert main(["trace", "no-such-device"]) == 1
        out = capsys.readouterr().out
        assert "error: unknown device 'no-such-device'" in out
        assert "known:" in out  # the message names the valid devices

    def test_trace_json_unknown_device_fails_cleanly(self, capsys):
        assert main(["trace", "no-such-device", "--json"]) == 1
        assert "unknown device" in capsys.readouterr().out

    def test_metrics_empty_registry_fails_cleanly(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.netsim.simulator import Simulator

        def unobserved_home(*_):
            dep = SecuredDeployment.build(sim=Simulator(observe=False))
            dep.add_device(smart_camera, "cam")
            dep.finalize()
            return dep

        monkeypatch.setattr(cli, "_attacked_home", unobserved_home)
        assert main(["metrics"]) == 1
        assert "metrics registry is empty" in capsys.readouterr().out

    def test_audit_journal_text(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        assert "audit journal:" in out and "recorded" in out
        # The canned attack leaves security evidence on the record.
        assert "alert" in out and "posture" in out

    def test_audit_kind_filter(self, capsys):
        assert main(["audit", "--kind", "posture"]) == 0
        out = capsys.readouterr().out
        body = [ln for ln in out.splitlines() if ln.startswith("  #")]
        assert body and all(" posture" in ln for ln in body)

    def test_audit_json(self, capsys):
        assert main(["audit", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries and {"seq", "at", "kind", "fields"} <= set(entries[0])
        kinds = {e["kind"] for e in entries}
        assert "alert" in kinds and "attack-step" in kinds

    def test_incident_text(self, capsys):
        assert main(["incident", "cam"]) == 0
        out = capsys.readouterr().out
        assert "incident report: cam" in out
        assert "timeline" in out and "detect" in out

    def test_incident_json(self, capsys):
        assert main(["incident", "cam", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["device"] == "cam"
        assert data["timeline"] and data["chains"]
        stages = {s["stage"] for c in data["chains"] for s in c["stages"]}
        assert "detect" in stages and "ingest-alert" in stages

    def test_incident_unknown_device_fails_cleanly(self, capsys):
        assert main(["incident", "no-such-device"]) == 1
        assert "unknown device" in capsys.readouterr().out


def test_cli_policy_export(capsys):
    from repro.policy.serialization import loads

    assert main(["policy"]) == 0
    out = capsys.readouterr().out
    policy = loads(out)
    assert set(policy.devices) == {"cam", "plug"}


def test_cli_fleet(capsys):
    assert main(["fleet", "--sites", "3"]) == 0
    out = capsys.readouterr().out
    assert "site 0" in out and "COMPROMISED" in out
    assert out.count("safe (signature blocked it)") == 2
    assert "fleet losses: 1/3" in out


def test_cli_demo_fig3(capsys):
    assert main(["demo", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "breached=True" in out and "breached=False" in out


def test_cli_demo_thermal(capsys):
    assert main(["demo", "thermal"]) == 0
    out = capsys.readouterr().out
    assert "window=open" in out and "window=closed" in out


class TestFailoverCli:
    def test_failover_both_arms(self, capsys):
        assert main(["failover"]) == 0
        out = capsys.readouterr().out
        assert "crash" in out and "standby" in out
        assert "blind window" in out

    def test_failover_storm(self, capsys):
        assert main(["failover", "--storm"]) == 0
        out = capsys.readouterr().out
        assert "fifo" in out and "shed" in out
        assert "p99_latency_s[monitor]" in out
        assert "enforcing alerts kept" in out

    def test_failover_json(self, capsys):
        assert main(["failover", "--json"]) == 0
        arms = json.loads(capsys.readouterr().out)
        assert [a["arm"] for a in arms] == ["crash", "standby"]


class TestChaosPlanCli:
    def test_plan_controller_builtin(self, capsys):
        assert main(["chaos", "--plan", "controller"]) == 0
        assert "blind window" in capsys.readouterr().out

    def test_plan_from_file(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"events": [{"at": 2.0, "kind": "partition", "target": "*", "duration": 3.0}]}
            )
        )
        assert main(["chaos", "--plan", str(plan)]) == 0
        assert "exposure window" in capsys.readouterr().out

    def test_malformed_plan_exits_2_with_one_line(self, tmp_path, capsys):
        plan = tmp_path / "bad.json"
        plan.write_text(
            json.dumps({"events": [{"at": 1.0, "kind": "bogus", "target": "x"}]})
        )
        assert main(["chaos", "--plan", str(plan)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "bogus" in captured.err
        assert captured.err.count("\n") == 1

    def test_unreadable_plan_exits_2(self, tmp_path, capsys):
        assert main(["chaos", "--plan", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read fault plan")

    def test_invalid_json_plan_exits_2(self, tmp_path, capsys):
        plan = tmp_path / "nota.json"
        plan.write_text("{not json")
        assert main(["chaos", "--plan", str(plan)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
