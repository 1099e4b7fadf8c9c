"""The perf-regression gate (``benchmarks/regression.py``) as a pure function.

The gate's ``compare`` takes plain dicts, so every CI-failure mode -- a
synthetic ``stack.tax_x`` or ``obs.cost_frac`` rise, a one-count change in
an exact counter -- is exercised here without running a single benchmark
(the bench imports inside ``measure()`` are lazy for exactly this reason).
The ``gate`` fixture lives in ``conftest.py``.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _baseline():
    return {
        "e9": {
            "80dev": {
                "devices": 80,
                "events": 13_530,
                "events_per_s": 100_000.0,
                "pipeline_rounds": 30,
                "pipeline_applies": 160,
            }
        },
    }


def _current(**overrides):
    return {"e9": {"80dev": dict(_baseline()["e9"]["80dev"], **overrides)}}


def _ledger(gate, **overrides):
    row = {
        "pkts_per_s": 50_000.0,
        "pkts_per_s_spread": 0.03,
        "stack.tax_x": 3.0,
        "obs.cost_frac": 0.0,
        "ledger.closure_frac": 1.0,
        "failed_checks": [],
    }
    row.update({f"{layer}.calls_per_pkt": 1.0 for layer in gate.FAST_PATH_LAYERS})
    row.update(overrides)
    return {"ledger": row}


class TestLedgerGate:
    """Wall clock is gated only as what one ledger process measures
    against itself."""

    def test_healthy_readings_pass(self, gate):
        assert gate.compare(_ledger(gate), _baseline()) == []

    def test_stack_tax_rise_fails(self, gate):
        current = _ledger(gate, **{"stack.tax_x": gate.STACK_TAX_LIMIT * 1.1})
        violations = gate.compare(current, _baseline())
        assert len(violations) == 1
        assert violations[0].startswith("ledger/stack.tax_x")

    def test_inlined_fast_path_layer_fails(self, gate):
        current = _ledger(gate, **{"mboxes.host.calls_per_pkt": 0.0})
        violations = gate.compare(current, _baseline())
        assert len(violations) == 1
        assert violations[0].startswith("ledger/mboxes.host.calls_per_pkt")

    def test_failed_ledger_check_is_named(self, gate):
        check = "ledger.closure_frac within [0.9, 1.1]"
        violations = gate.compare(_ledger(gate, failed_checks=[check]), _baseline())
        assert violations == [f"ledger: correctness check failed: {check}"]

    def test_raw_wall_clock_is_never_gated(self, gate):
        """A tenfold packet-rate drop on a slower machine is not a violation."""
        assert gate.compare(_ledger(gate, pkts_per_s=5_000.0), _baseline()) == []
        assert gate.compare(_current(events_per_s=10_000.0), _baseline()) == []

    def test_missing_ledger_section_is_not_a_violation(self, gate):
        assert gate.compare(_current(), _baseline()) == []
        assert gate.compare({"ledger": {}}, _baseline()) == []


class TestOverheadGate:
    """The observability-overhead gate, read from the ledger's
    ``obs.cost_frac`` (same run with and without instruments, one process)."""

    def test_excessive_obs_overhead_fails(self, gate):
        current = _ledger(gate, **{"obs.cost_frac": gate.OBS_COST_LIMIT + 0.05})
        violations = gate.compare(current, _baseline())
        assert len(violations) == 1
        assert violations[0].startswith("ledger/obs.cost_frac")

    def test_missing_overhead_is_not_a_violation(self, gate):
        current = _ledger(gate)
        del current["ledger"]["obs.cost_frac"]
        assert gate.compare(current, _baseline()) == []


class TestExitCode:
    """``main`` with the measurement stubbed: exit 1 names the gate."""

    def _run(self, gate, monkeypatch, capsys, current):
        entries = []
        monkeypatch.setattr(gate, "measure", lambda: current)
        monkeypatch.setattr(gate, "append_trajectory", entries.append)
        code = gate.main([])
        return code, capsys.readouterr().out, entries[0]

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"stack.tax_x": 9.0}, "ledger/stack.tax_x"),
            ({"obs.cost_frac": 0.5}, "ledger/obs.cost_frac"),
            ({"sdn.channel.calls_per_pkt": 0}, "ledger/sdn.channel.calls_per_pkt"),
        ],
    )
    def test_synthetic_regression_exits_1_naming_the_gate(
        self, gate, monkeypatch, capsys, override, named
    ):
        code, out, entry = self._run(gate, monkeypatch, capsys, _ledger(gate, **override))
        assert code == 1
        assert "REGRESSIONS DETECTED" in out and named in out
        assert any(named in v for v in entry["violations"])

    def test_clean_run_exits_0_and_records_the_readings(self, gate, monkeypatch, capsys):
        code, out, entry = self._run(gate, monkeypatch, capsys, _ledger(gate))
        assert code == 0 and "no regressions" in out
        assert entry["violations"] == [] and entry["ledger"]["ledger"]["pkts_per_s"] == 50_000.0


class TestDeterminismGate:
    def test_event_count_drift_fails(self, gate):
        violations = gate.compare(_current(events=14_000), _baseline())
        assert len(violations) == 1
        assert "e9/80dev" in violations[0] and "events" in violations[0]
        assert "re-record the baselines" in violations[0]

    def test_pipeline_counter_drift_fails(self, gate):
        violations = gate.compare(_current(pipeline_applies=200), _baseline())
        assert any("pipeline_applies" in v for v in violations)

    def test_one_count_change_in_any_listed_counter_fails(self, gate):
        """Exact means exact: every key of every section, off by one."""
        for section, keys in gate.EXACT.items():
            for key in keys:
                baseline = {section: {"arm": {"nested": {key: 7}}}}
                current = {section: {"arm": {"nested": {key: 8}}}}
                violations = gate.exact_drift(current, baseline)
                assert len(violations) == 1, (section, key)
                assert f"{section}/arm/nested" in violations[0] and key in violations[0]
                assert gate.exact_drift(baseline, baseline) == []

    def test_sizes_missing_from_baseline_are_skipped(self, gate):
        current = {"e9": {"160dev": dict(_current()["e9"]["80dev"], events=1)}}
        assert gate.compare(current, _baseline()) == []

    def test_drift_message_is_stated_once(self):
        source = (ROOT / "benchmarks" / "regression.py").read_text()
        assert source.count("re-record the baselines") == 1


def _e12(resilient_exposure=3.0, baseline_exposure=24.0, **overrides):
    arms = {
        "baseline": {
            "exposure_s": baseline_exposure,
            "attack_attempts": 167,
            "attack_successes": 90,
            "events": 1162,
        },
        "resilient": {
            "exposure_s": resilient_exposure,
            "attack_attempts": 167,
            "attack_successes": 7,
            "events": 1088,
        },
    }
    arms["resilient"].update(overrides)
    return arms


class TestResilienceGate:
    def test_unbounded_exposure_fails(self, gate):
        """If the resilient arm no longer beats the no-resilience arm,
        the resilience machinery is broken, whatever the baseline says."""
        current = _current()
        current["e12"] = _e12(resilient_exposure=25.0)
        baseline = _baseline()
        baseline["e12"] = _e12()
        violations = gate.compare(current, baseline)
        assert any("no longer bounds" in v for v in violations)

    def test_exposure_growth_beyond_threshold_fails(self, gate):
        current = _current()
        current["e12"] = _e12(resilient_exposure=3.9)  # +30%
        baseline = _baseline()
        baseline["e12"] = _e12()
        violations = gate.compare(current, baseline)
        assert any("exposure window grew 30.0%" in v for v in violations)

    def test_exposure_within_threshold_passes(self, gate):
        current = _current()
        current["e12"] = _e12(resilient_exposure=3.3)  # +10%
        baseline = _baseline()
        baseline["e12"] = _e12()
        assert gate.compare(current, baseline) == []

    def test_deterministic_counter_drift_fails(self, gate):
        current = _current()
        current["e12"] = _e12(attack_successes=20)
        baseline = _baseline()
        baseline["e12"] = _e12()
        violations = gate.compare(current, baseline)
        assert any("e12/resilient" in v and "attack_successes" in v for v in violations)

    def test_missing_e12_baseline_is_not_a_violation(self, gate):
        current = _current()
        current["e12"] = _e12()
        assert gate.compare(current, _baseline()) == []


class TestThresholdConfig:
    def test_thresholds_pinned_in_one_config_block(self, gate):
        assert gate.RESILIENCE_REGRESSION == 0.20
        assert 1.0 < gate.STACK_TAX_LIMIT and 0.0 < gate.OBS_COST_LIMIT < 1.0
        assert set(gate.EXACT["e9"]) == {"events", "pipeline_rounds", "pipeline_applies"}
        assert set(gate.EXACT) == set(gate.BASELINES)

    def test_no_threshold_reads_the_environment(self):
        source = (ROOT / "benchmarks" / "regression.py").read_text()
        assert "environ" not in source


def _unread_ci_env(ci_text: str) -> list[str]:
    """``REPRO_*`` names a CI step sets that the file it runs never reads.

    A step is the text from one ``- name:``/``- uses:`` line to the next;
    the files it runs are the ``benchmarks/`` or ``tests/`` paths in it (a
    step naming none, like the tier-1 run, may be read by any of them).
    """
    unread = []
    for step in re.split(r"\n\s+- (?=name:|uses:)", ci_text):
        names = re.findall(r"^\s+(REPRO_\w+):", step, re.M)
        files = [ROOT / path for path in re.findall(r"(?:benchmarks|tests)/[\w/]+\.py", step)]
        if names and not files:
            files = [*ROOT.glob("benchmarks/*.py"), *ROOT.glob("tests/*.py")]
        texts = [path.read_text() for path in files if path.exists()]
        unread += [name for name in names if not any(name in text for text in texts)]
    return unread


class TestCiEnvGuard:
    """CI may not set a knob nothing reads, and no threshold is a knob."""

    RUN_SELECTION_FLAGS = {"REPRO_E15_FULL", "REPRO_RECORD_FIXTURES"}

    def test_every_ci_env_var_is_read_by_the_step_it_is_set_on(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert _unread_ci_env(ci) == []

    def test_guard_catches_a_threshold_set_on_a_step_that_ignores_it(self):
        step = """
      - name: Durable-telemetry bench E14
        run: python -m pytest -q -s benchmarks/bench_e14_durable_telemetry.py
        env:
          PYTHONPATH: src
          REPRO_E14_PEAK_BUFFER: "1"
      - name: Federation bench E15
        run: python -m pytest -q -s benchmarks/bench_e15_federation.py
        env:
          REPRO_E15_FULL: "1"
"""
        assert _unread_ci_env(step) == ["REPRO_E14_PEAK_BUFFER"]

    def test_only_run_selection_flags_are_read_from_the_environment(self):
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        found = set(re.findall(r"^\s+(REPRO_\w+):", ci, re.M))
        for top in ("src", "benchmarks", "tests", "examples"):
            for path in (ROOT / top).rglob("*.py"):
                found |= set(re.findall(r"environ[^\n]*?[\"'](REPRO_\w+)", path.read_text()))
        assert found <= self.RUN_SELECTION_FLAGS, sorted(found - self.RUN_SELECTION_FLAGS)


class TestTrajectory:
    def test_appends_entries_in_order(self, gate, tmp_path):
        path = tmp_path / "BENCH_TRAJECTORY.json"
        gate.append_trajectory({"git_sha": "aaa"}, path)
        history = gate.append_trajectory({"git_sha": "bbb"}, path)
        assert [e["git_sha"] for e in history] == ["aaa", "bbb"]
        on_disk = json.loads(path.read_text())
        assert on_disk == history

    def test_corrupt_history_starts_fresh(self, gate, tmp_path):
        path = tmp_path / "BENCH_TRAJECTORY.json"
        path.write_text("{not json")
        history = gate.append_trajectory({"git_sha": "ccc"}, path)
        assert [e["git_sha"] for e in history] == ["ccc"]

    def test_repo_trajectory_has_at_least_one_entry(self, gate):
        """The gate has run at least once on this commit's baselines."""
        history = json.loads(gate.TRAJECTORY_PATH.read_text())
        assert isinstance(history, list) and history
        entry = history[-1]
        assert {"git_sha", "recorded_at", "ledger", "e9", "violations"} <= set(entry)
        readings = entry["ledger"]["ledger"]
        assert {"pkts_per_s", "pkts_per_s_spread", "host.calib_events_per_s"} <= set(readings)
        assert entry["violations"] == []

    def test_entry_is_generated_from_the_tables(self, gate):
        current = _ledger(gate)
        current["e9"] = _current(events_per_s=1.0)["e9"]
        current["e12"] = _e12()
        summary = gate.summarize(current)
        assert summary["e9"] == {
            "e9/80dev": {"events": 13_530, "pipeline_rounds": 30, "pipeline_applies": 160}
        }
        assert summary["e12"]["e12/resilient"]["exposure_s"] == 3.0
        assert "failed_checks" not in summary["ledger"]["ledger"]


class TestBaselines:
    def test_committed_baselines_load(self, gate):
        baseline = gate.load_baseline()
        assert baseline["e9"], "E9 baseline missing from benchmarks/results/"
        assert set(baseline["e9"]) >= {f"{n}dev" for n in gate.SWEEP}
        assert set(baseline["e12"]) == {"baseline", "resilient"}, (
            "E12 baseline missing from benchmarks/results/"
        )


def _e13(blind_standby=1.5, blind_crash=20.0, enforcing_frac=1.0, **overrides):
    arms = {
        "failover": {
            "crash": {
                "attack_attempts": 59,
                "blind_window_s": blind_crash,
                "events": 1014,
            },
            "standby": {
                "attack_attempts": 59,
                "blind_window_s": blind_standby,
                "events": 571,
            },
        },
        "storm": {
            "fifo": {"enforcing_processed_frac": 0.05, "events": 12796},
            "shed": {"enforcing_processed_frac": enforcing_frac, "events": 12717},
        },
    }
    arms["failover"]["standby"].update(overrides)
    return arms


class TestSurvivabilityGate:
    def test_thresholds_pinned(self, gate):
        assert gate.FAILOVER_BLIND_RATIO == 0.20
        assert gate.STORM_MIN_ENFORCING_FRAC == 0.90

    def test_blind_ratio_beyond_threshold_fails(self, gate):
        """A standby blind window at 25% of the outage trips the gate --
        this is the issue's acceptance bound, not a baseline delta."""
        current = _current()
        current["e13"] = _e13(blind_standby=5.0)  # 25% of 20s
        violations = gate.compare(current, _baseline())
        assert any("blind window" in v for v in violations)

    def test_storm_fraction_below_floor_fails(self, gate):
        current = _current()
        current["e13"] = _e13(enforcing_frac=0.8)
        violations = gate.compare(current, _baseline())
        assert any("enforcing" in v for v in violations)

    def test_within_bounds_passes(self, gate):
        current = _current()
        current["e13"] = _e13()
        baseline = _baseline()
        baseline["e13"] = _e13()
        assert gate.compare(current, baseline) == []

    def test_deterministic_counter_drift_fails(self, gate):
        current = _current()
        current["e13"] = _e13(events=700)  # standby arm drifted
        baseline = _baseline()
        baseline["e13"] = _e13()
        violations = gate.compare(current, baseline)
        assert any(
            "e13/failover/standby" in v and "events" in v for v in violations
        )

    def test_missing_e13_baseline_is_not_a_violation(self, gate):
        current = _current()
        current["e13"] = _e13()
        assert gate.compare(current, _baseline()) == []

    def test_committed_e13_baseline_loads(self, gate):
        baseline = gate.load_baseline()
        assert set(baseline["e13"]) == {"failover", "storm"}, (
            "E13 baseline missing from benchmarks/results/"
        )
        assert set(baseline["e13"]["failover"]) == {"crash", "standby"}
        assert set(baseline["e13"]["storm"]) == {"fifo", "shed"}


def _e14(loss=0, lossy_loss=1812, peak_depth=1803, **overrides):
    arms = {
        "lossy": {
            "emitted": 1923,
            "received": 111,
            "telemetry_loss": lossy_loss,
            "delivered": 0,
            "peak_depth": 0,
            "events": 19372,
        },
        "durable": {
            "emitted": 1890,
            "received": 1890,
            "telemetry_loss": loss,
            "delivered": 1890,
            "peak_depth": peak_depth,
            "events": 24576,
        },
    }
    arms["durable"].update(overrides)
    return arms


class TestDurabilityGate:
    def test_threshold_pinned(self, gate):
        assert gate.E14_PEAK_BUFFER_LIMIT == 2048

    def test_any_durable_loss_fails(self, gate):
        """Zero loss is absolute: one lost record trips the gate, no
        baseline delta or drift tolerance applies."""
        current = _current()
        current["e14"] = _e14(loss=1)
        violations = gate.compare(current, _baseline())
        assert any("lost 1 records" in v for v in violations)

    def test_peak_depth_beyond_ceiling_fails(self, gate):
        current = _current()
        current["e14"] = _e14(peak_depth=3000)
        violations = gate.compare(current, _baseline())
        assert any("memory budget" in v for v in violations)

    def test_lossless_lossy_arm_fails(self, gate):
        """If the lossy arm stops losing records, the scenario no longer
        exercises the partition and the durable gate proves nothing."""
        current = _current()
        current["e14"] = _e14(lossy_loss=0)
        violations = gate.compare(current, _baseline())
        assert any("lossy arm" in v for v in violations)

    def test_within_bounds_passes(self, gate):
        current = _current()
        current["e14"] = _e14()
        baseline = _baseline()
        baseline["e14"] = _e14()
        assert gate.compare(current, baseline) == []

    def test_deterministic_counter_drift_fails(self, gate):
        current = _current()
        current["e14"] = _e14(delivered=1700)  # durable arm drifted
        baseline = _baseline()
        baseline["e14"] = _e14()
        violations = gate.compare(current, baseline)
        assert any("e14/durable" in v and "delivered" in v for v in violations)

    def test_committed_e14_baseline_loads(self, gate):
        baseline = gate.load_baseline()
        assert set(baseline["e14"]) == {"lossy", "durable"}, (
            "E14 baseline missing from benchmarks/results/"
        )
        assert baseline["e14"]["durable"]["telemetry_loss"] == 0


class TestFederationGate:
    """The E15 pair is defined in bench E15; the gate reads the floor the
    row carries."""

    def test_floor_follows_the_core_count(self, gate, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
        import bench_e15_federation as e15

        pair = {"devices": e15.PAIR_SWEEP[-1], "speedup": 2.0, "compromised": 0}
        for cores, violated in ((1, False), (2, False), (4, True)):
            monkeypatch.setattr(
                e15.os, "sched_getaffinity", lambda pid, n=cores: set(range(n)), raising=False
            )
            floor = e15.parallel_floor()
            assert floor == e15.PARALLEL_EFFICIENCY * cores
            current = {"e15": {"pair": {**pair, "min_speedup": floor}}}
            violations = gate.compare(current, _baseline())
            assert bool(violations) is violated
            if violated:
                assert "e15" in violations[0] and f"floor {floor}x" in violations[0]

    def test_pair_without_a_floor_is_not_a_violation(self, gate):
        assert gate.compare({"e15": {"pair": {"speedup": 0.5}}}, _baseline()) == []


class TestHealthGate:
    """The SLO/health verdicts: steady must be green, chaos must breach
    AND recover (matched by trace id)."""

    def _health(self, steady=None, chaos=None):
        current = _current()
        current["health"] = {
            "steady": steady
            if steady is not None
            else {"plan": "none", "rollup": "ok", "slo_breaches": 0},
            "chaos": chaos
            if chaos is not None
            else {
                "plan": "standard",
                "rollup": "ok",
                "slo_breaches": 2,
                "matched_recoveries": 2,
            },
        }
        return current

    def test_green_steady_and_breaching_chaos_pass(self, gate):
        assert gate.compare(self._health(), _baseline()) == []

    def test_degraded_steady_rollup_fails(self, gate):
        current = self._health(
            steady={"plan": "none", "rollup": "degraded", "slo_breaches": 0}
        )
        violations = gate.compare(current, _baseline())
        assert any("health/steady" in v and "rollup" in v for v in violations)

    def test_steady_breach_fails(self, gate):
        current = self._health(
            steady={"plan": "none", "rollup": "ok", "slo_breaches": 3}
        )
        violations = gate.compare(current, _baseline())
        assert any("health/steady" in v and "breach" in v for v in violations)

    def test_blind_chaos_plan_fails(self, gate):
        current = self._health(
            chaos={"plan": "standard", "slo_breaches": 0, "matched_recoveries": 0}
        )
        violations = gate.compare(current, _baseline())
        assert any("health/chaos" in v and "no SLO breach" in v for v in violations)

    def test_unmatched_recovery_fails(self, gate):
        current = self._health(
            chaos={"plan": "standard", "slo_breaches": 1, "matched_recoveries": 0}
        )
        violations = gate.compare(current, _baseline())
        assert any("health/chaos" in v and "trace id" in v for v in violations)

    def test_missing_health_section_is_not_a_violation(self, gate):
        assert gate.compare(_current(), _baseline()) == []
