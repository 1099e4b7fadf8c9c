"""Inputs, statistics, names and a short run of every workload."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import metrics
import run
import workloads

REPO = Path(__file__).resolve().parents[3]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMOKE_HORIZON = 5.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    spec = workloads.WORKLOADS[name]
    assert workloads.generate_inputs(spec, 7) == workloads.generate_inputs(spec, 7)
    assert workloads.generate_inputs(spec, 7) != workloads.generate_inputs(spec, 8)


def test_different_seed_different_attack_targets():
    spec = workloads.WORKLOADS["attack-storm"]
    a, b = workloads.generate_inputs(spec, 1), workloads.generate_inputs(spec, 2)
    assert len(a.waves) == len(b.waves) > 700
    assert [w.at for w in a.waves] == [w.at for w in b.waves]
    assert [w.hits for w in a.waves] != [w.hits for w in b.waves]


def test_bare_forward_replays_home_steady_traffic():
    home = workloads.generate_inputs(workloads.WORKLOADS["home-steady"], 5, 100.0)
    bare = workloads.generate_inputs(workloads.WORKLOADS["bare-forward"], 5, 100.0)
    assert (home.device_order, home.phases, home.opening_targets) == (
        bare.device_order,
        bare.phases,
        bare.opening_targets,
    )


def test_nobody_rearms_during_a_partition():
    spec = workloads.WORKLOADS["partition-replay"]
    inputs = workloads.generate_inputs(spec, 3)
    assert len(inputs.partitions) >= 3
    inside = [
        w
        for w in inputs.waves
        if any(lo <= w.at + workloads.REARM_DELAY < hi for lo, hi in inputs.partitions)
    ]
    assert inside and not any(w.rearm or w.repin for w in inside)
    assert any(w.repin for w in inputs.waves)


def test_percentile_needs_ten_samples_beyond_it():
    assert workloads.percentile(list(range(999)), 0.99) is None
    assert workloads.percentile(list(range(1000)), 0.99) == 989
    assert workloads.percentile(list(range(19)), 0.5) is None
    assert workloads.percentile(list(range(20)), 0.5) == 9
    assert workloads.percentile([], 0.5) is None
    assert workloads.percentile([3.0, 1.0, 2.0] * 7, 0.5) == 2.0  # unsorted input


def test_summarize_reports_median_quartiles_and_sample_count():
    row = run.summarize([10.0, 12.0, 11.0, 13.0, 9.0])
    assert row["value"] == 11.0 and row["samples"] == 5
    assert row["q1"] < row["value"] < row["q3"]
    assert row["spread"] == pytest.approx((row["q3"] - row["q1"]) / 11.0)
    assert run.summarize([4.0])["spread"] == 0.0


def test_benchmark_json_is_generated_from_the_metric_table():
    committed = json.loads((REPO / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()


def test_names_units_and_limits_of_the_contract():
    doc = metrics.benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"] + doc["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert 1 <= len(doc["per_layer"]) <= 128
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= doc["end_to_end"][1].items()
    assert max(m["bound"] for m in doc["end_to_end"]) == doc["end_to_end"][1]["bound"] <= 0.25
    # the issue's ten end-to-end names all exist, gated or exact
    assert set(metrics.END_TO_END_NAMES) <= set(names)
    assert len(metrics.END_TO_END_NAMES) == 10


@pytest.fixture
def short_horizons(monkeypatch):
    for name, spec in list(workloads.WORKLOADS.items()):
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(spec, horizon=40.0, warmup=10.0)
        )


def _last_line(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_emitted_end_to_end_names_match_benchmark_json(short_horizons, capsys):
    assert run.main(["--workload", "home-steady", "--repeats", "2", "--seed", "4"]) == 0
    result = _last_line(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in metrics.benchmark_json()["end_to_end"]]
    assert all(row["value"] > 0 for row in result["metrics"].values())


def test_emitted_per_layer_names_match_benchmark_json(short_horizons, capsys, monkeypatch):
    # the closure window is for real horizons, not 40 simulated seconds
    monkeypatch.setattr(run, "CLOSURE_WINDOW", (0.0, 10.0))
    code = run.main(
        ["--workload", "bare-forward", "--trace", "1", "--parts", "calib,trace", "--seconds", "1"]
    )
    result = _last_line(capsys)
    assert code == 0 and result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in metrics.benchmark_json()["per_layer"]]
    by_name = {m["name"]: m["unit"] for m in metrics.benchmark_json()["per_layer"]}
    assert all(row["unit"] == by_name[name] for name, row in result["metrics"].items())
    # bare-forward runs no security stack: those layers were never called
    for name, row in result["metrics"].items():
        if name.endswith(".calls_per_pkt") and name.startswith(("mboxes.", "sdn.", "core.")):
            assert row["value"] == 0, name
    assert result["metrics"]["netsim.link.calls_per_pkt"]["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_five_second_smoke_of_every_workload(name):
    spec = workloads.WORKLOADS[name]
    inputs = workloads.generate_inputs(spec, 11, SMOKE_HORIZON)
    first = workloads.run_once(spec, inputs, SMOKE_HORIZON)
    again = workloads.run_once(spec, inputs, SMOKE_HORIZON)
    assert first["counters"] == again["counters"]  # digest included
    assert first["exact"] == again["exact"] and first["counts"] == again["counts"]
    counters = first["counters"]
    assert counters["failed"] == 0 and counters["packets"] > 0
    assert counters["reports_sent"] == counters["reports_received"]
    if spec.iotsec:
        assert counters["mboxes"] == spec.devices and counters["opening_blocked"] == 2
    other = workloads.run_once(
        spec, workloads.generate_inputs(spec, 12, SMOKE_HORIZON), SMOKE_HORIZON
    )
    assert other["counters"]["journal_sha256"] != counters["journal_sha256"]
