"""Tests for the campaign engine, library, scorecard, and CLI
(:mod:`repro.faults.campaign`, :mod:`repro.faults.campaign_library`)."""

import json

import pytest

from repro.core.deployment import DeviceSpec, SiteSpec
from repro.devices.library import door_lock, smart_plug
from repro.faults.campaign import (
    CAMPAIGN_CLASSES,
    STAGE_KINDS,
    Campaign,
    CampaignRunner,
    CampaignStage,
    ContainmentTracker,
    journal_digest,
    score_campaign,
)
from repro.faults.campaign_library import (
    CAMPAIGNS,
    ENFORCING_CLASSES,
    arm_campaign,
    build_home,
    campaigns_by_class,
    get_campaign,
    measure_campaign,
    run_campaign,
)


def S(name, at, kind, params, **kw):
    return CampaignStage(name, at, kind, params, **kw)


class TestStageValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            S("s", 1.0, "teleport", {})

    def test_missing_required_param_rejected(self):
        with pytest.raises(ValueError, match="command"):
            S("s", 1.0, "command", {}, target="cam")

    def test_unknown_exploit_rejected(self):
        with pytest.raises(ValueError, match="unknown exploit"):
            S("s", 1.0, "exploit", {"exploit": "nope"}, target="cam")

    def test_exploit_requires_target(self):
        with pytest.raises(ValueError, match="target"):
            S("s", 1.0, "exploit", {"exploit": "brute_force_login"})

    def test_bad_routing_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            S("s", 1.0, "routing-attack", {"mode": "wormhole"})

    def test_bad_precondition_kind_rejected(self):
        with pytest.raises(ValueError, match="precondition"):
            S("s", 1.0, "command", {"command": "on"}, target="cam",
              precondition={"kind": "moon-phase"})

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            S("s", -1.0, "command", {"command": "on"}, target="cam")
        with pytest.raises(ValueError):
            S("s", 1.0, "command", {"command": "on"}, target="cam", jitter=-0.5)


class TestCampaignValidation:
    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="campaign class"):
            Campaign("x", "zero-day")

    def test_duplicate_stage_names_rejected(self):
        stage = S("a", 1.0, "command", {"command": "on"}, target="cam")
        with pytest.raises(ValueError, match="duplicate"):
            Campaign("x", "single-flaw", stages=(stage, stage))

    def test_forward_dependency_rejected(self):
        early = S("a", 1.0, "command", {"command": "on"}, target="cam",
                  depends_on=("b",))
        late = S("b", 2.0, "command", {"command": "on"}, target="cam")
        with pytest.raises(ValueError, match="earlier stage"):
            Campaign("x", "single-flaw", stages=(early, late))


class TestFromJson:
    """Satellite: strict validation naming the offending stage."""

    def test_error_names_the_offending_stage(self):
        doc = {
            "name": "x",
            "class": "single-flaw",
            "stages": [
                {"name": "ok", "at": 1.0, "kind": "command",
                 "params": {"command": "on"}, "target": "cam"},
                {"name": "broken", "at": 2.0, "kind": "exploit",
                 "params": {"exploit": "nope"}, "target": "cam"},
            ],
        }
        with pytest.raises(ValueError, match=r"stage #1 \('broken'\)"):
            Campaign.from_json(json.dumps(doc))

    def test_missing_field_named(self):
        doc = {"name": "x", "class": "single-flaw",
               "stages": [{"name": "s", "kind": "command"}]}
        with pytest.raises(ValueError, match=r"stage #0 \('s'\)"):
            Campaign.from_json(json.dumps(doc))

    def test_campaign_level_error_names_campaign(self):
        with pytest.raises(ValueError, match="campaign 'x'"):
            Campaign.from_json(json.dumps({"name": "x", "class": "bogus"}))

    def test_invalid_json_wrapped(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            Campaign.from_json("{nope")


class TestRoundTrip:
    """Satellite: to_json/from_json equality for the full library."""

    def test_full_library_round_trips(self):
        for campaign in CAMPAIGNS.values():
            assert Campaign.from_json(campaign.to_json()) == campaign

    def test_as_dict_omits_defaults(self):
        stage = S("s", 1.0, "command", {"command": "on"}, target="cam")
        d = stage.as_dict()
        assert "jitter" not in d and "depends_on" not in d
        assert "precondition" not in d

    def test_round_trip_preserves_stage_structure(self):
        c = CAMPAIGNS["plug-unlock-chain"]
        r = Campaign.from_json(c.to_json())
        assert [s.name for s in r.stages] == [s.name for s in c.stages]
        assert r.stages[1].precondition == c.stages[1].precondition
        assert r.stages[1].depends_on == c.stages[1].depends_on


class TestLibrary:
    def test_corpus_size_and_classes(self):
        assert len(CAMPAIGNS) >= 15
        for cls in CAMPAIGN_CLASSES:
            assert len(campaigns_by_class(cls)) >= 3, cls

    def test_enforcing_classes_subset(self):
        assert set(ENFORCING_CLASSES) < set(CAMPAIGN_CLASSES)
        assert "fabric-degradation" not in ENFORCING_CLASSES

    def test_get_campaign_unknown_names_known(self):
        with pytest.raises(KeyError, match="no campaign named"):
            get_campaign("nope")
        assert get_campaign("cam-default-creds").campaign_class == "single-flaw"

    def test_every_campaign_declares_expectations(self):
        for campaign in CAMPAIGNS.values():
            assert campaign.expect_contained, campaign.name
            assert campaign.stages, campaign.name


class TestRunnerGating:
    def test_failed_dependency_skips_stage(self):
        dep = build_home(health=False)
        campaign = Campaign(
            "t", "single-flaw", expect_contained=("cam",), horizon=10.0,
            stages=(
                S("a", 1.0, "env-set", {"variable": "no-such-var", "value": 1}),
                S("b", 2.0, "command", {"command": "on"}, target="cam",
                  depends_on=("a",)),
            ),
        )
        runner = CampaignRunner(campaign, dep).start()
        dep.run(until=5.0)
        statuses = runner.stage_statuses()
        assert statuses["a"] == "error"
        assert statuses["b"] == "skipped-dep"

    def test_unmet_precondition_skips_stage(self):
        dep = build_home(health=False)
        campaign = Campaign(
            "t", "single-flaw", expect_contained=("cam",), horizon=10.0,
            stages=(
                S("a", 1.0, "command", {"command": "on"}, target="cam",
                  precondition={"kind": "loot", "target": "cam"}),
            ),
        )
        runner = CampaignRunner(campaign, dep).start()
        dep.run(until=5.0)
        assert runner.stage_statuses()["a"] == "skipped-precondition"

    def test_stage_results_journaled_with_trace(self):
        dep = build_home(health=False)
        campaign = CAMPAIGNS["plug-backdoor-blast"]
        CampaignRunner(campaign, dep).start()
        dep.run(until=campaign.horizon)
        stages = dep.sim.journal.entries(kind="campaign-stage")
        assert stages and all(e.trace_id is not None for e in stages)
        start = dep.sim.journal.entries(kind="campaign-start")
        assert len(start) == 1
        assert start[0].fields["campaign"] == "plug-backdoor-blast"

    def test_seeded_jitter_is_deterministic(self):
        fire_times = []
        for _ in range(2):
            dep = build_home(health=False)
            campaign = CAMPAIGNS["cam-default-creds"]  # cred-wave has jitter
            runner = CampaignRunner(campaign, dep).start()
            dep.run(until=campaign.horizon)
            fire_times.append(
                {name: r.fired_at for name, r in runner.results.items()}
            )
        assert fire_times[0] == fire_times[1]
        # Jitter actually moved the stage off its nominal time.
        assert fire_times[0]["cred-wave"] != 4.0


class TestScorecard:
    def test_detection_and_containment_fields(self):
        score = run_campaign(CAMPAIGNS["cam-default-creds"], health=False)
        assert score["attacked"] == ["cam"]
        assert score["detection_recall"] == 1.0
        assert score["detection_precision"] == 1.0
        assert score["containment_misses"] == []
        assert score["time_to_containment_s"]["cam"] > 0
        assert score["exposure_s"]["cam"] == score["time_to_containment_s"]["cam"]

    def test_pre_pinned_device_has_zero_exposure(self):
        # heat-vent-entry attacks the lock, which was pinned at setup:
        # containment predates the attack, so ttc and exposure are 0.
        score = run_campaign(CAMPAIGNS["heat-vent-entry"], health=False)
        assert score["containment_misses"] == []
        assert score["time_to_containment_s"]["lock"] == 0.0
        assert score["exposure_s"]["lock"] == 0.0

    def test_uncontained_attack_is_a_miss_with_full_exposure(self):
        dep = build_home(health=False)
        campaign = Campaign(
            "t", "single-flaw", expect_contained=("stb",), horizon=6.0,
            stages=(
                # One quiet open-port poke: below every escalation window,
                # sent to the *unsignatured* port -- never contained.
                S("poke", 1.0, "command",
                  {"command": "play", "dport": 80}, target="stb"),
            ),
        )
        runner = CampaignRunner(campaign, dep).start()
        dep.run(until=campaign.horizon)
        from repro.faults.campaign import score_campaign

        score = score_campaign(dep, runner)
        assert score["containment_misses"] == ["stb"]
        assert score["exposure_s"]["stb"] == pytest.approx(5.0)

    @pytest.mark.parametrize(
        "name, launchpad", [("plug-pivot-lock", "plug"), ("alarm-pivot-window", "alarm")]
    )
    def test_a_pivot_the_launchpad_dropped_attacks_no_victim(self, name, launchpad):
        """The launchpad's own firewall drops the pivot: the victim never
        receives a packet, so it is not attacked and recall is not owed."""
        campaign = CAMPAIGNS[name]
        dep, runner = arm_campaign(campaign, health=False)
        dep.run(until=campaign.horizon)
        score = measure_campaign(dep, runner)
        assert not runner.exploit_results["pivot"].succeeded
        assert any(
            e.fields["verdict"] == "drop" and e.fields["element"] == "stateful_firewall"
            for e in dep.sim.journal.entries(kind="verdict", device=launchpad)
        )
        assert score["attacked"] == [launchpad]
        assert score["detection_recall"] == 1.0

    def test_a_relayed_pivot_attacks_its_victim(self):
        dep = SiteSpec(
            with_iotsec=False,
            devices=(DeviceSpec(smart_plug, "plug"), DeviceSpec(door_lock, "lock")),
            attackers=("attacker",),
        ).deploy()
        pivot = S("pivot", 1.0, "exploit",
                  {"exploit": "lateral_movement", "backdoor_port": 49153,
                   "victim": "lock", "victim_port": 4444,
                   "inner_payload": {"cmd": "unlock"}},
                  target="plug")
        campaign = Campaign("t", "lateral-movement", horizon=5.0, stages=(pivot,))
        runner = CampaignRunner(campaign, dep).start()
        dep.run(until=campaign.horizon)
        score = score_campaign(dep, runner)
        assert runner.exploit_results["pivot"].succeeded
        assert dep.devices["lock"].rx_count == 1  # the relayed command
        assert score["attacked"] == ["lock", "plug"]

    def test_automation_abuse_chain_fires_recipe(self):
        campaign = CAMPAIGNS["plug-unlock-chain"]
        dep, runner = arm_campaign(campaign)
        dep.run(until=campaign.horizon)
        score = measure_campaign(dep, runner)
        # The recipe chain really ran: the lock ended up unlocked by the
        # hub (trusted through the pinned firewall), and the follow-on
        # stage was not precondition-skipped.
        assert score["stage_statuses"]["burgle-cam"] == "ok"
        assert dep.devices["lock"].state == "unlocked"
        assert score["containment_misses"] == []


class TestFabricDegradation:
    def test_sinkhole_breaches_containment_slo(self):
        score = run_campaign(CAMPAIGNS["sinkhole-blackout"])
        assert score["fabric_degraded"]
        assert score["containment_breaches"] >= 1
        assert score["containment_misses"] == []  # contained after recovery
        assert score["time_to_containment_s"]["cam"] > 8.0  # degradation cost

    def test_selective_forward_smuggles_past_containment(self):
        score = run_campaign(CAMPAIGNS["selective-forward-smuggle"])
        routing = score["routing"][0]
        assert routing["mode"] == "selective-forward"
        assert routing["bypassed"] > 0
        assert score["containment_misses"] == []

    def test_mbox_crash_yields_outage_and_repin_evidence(self):
        score = run_campaign(CAMPAIGNS["mbox-crash-cover"])
        graceful = score["graceful_degradation"]
        assert graceful["outages"] >= 1 and graceful["recovered"] >= 1
        assert graceful["ok"]
        assert score["repin_count"] >= 1
        assert score["down_drops"] >= 1  # fail-closed held during the outage


class TestDeterminism:
    """Satellite: same seed -> byte-identical journal digests, per campaign."""

    @pytest.mark.parametrize("name", sorted(CAMPAIGNS))
    def test_two_runs_identical_digests(self, name):
        a = run_campaign(CAMPAIGNS[name])
        b = run_campaign(CAMPAIGNS[name])
        assert a["journal_digest"] == b["journal_digest"], name
        assert a["events"] == b["events"]

    def test_different_seed_changes_jittered_campaign(self):
        a = run_campaign(CAMPAIGNS["cam-default-creds"], seed=1)
        b = run_campaign(CAMPAIGNS["cam-default-creds"], seed=2)
        assert a["journal_digest"] != b["journal_digest"]


class TestContainmentTracker:
    def test_tracker_counts_miss_ticks_past_deadline(self):
        dep = build_home(health=False)
        tracker = ContainmentTracker(dep, expected=("victim-x",), deadline=2.0)
        tracker.note_attack("victim-x", 0.0)  # never contained (not a device)
        dep.run(until=6.0)
        assert tracker.miss_ticks > 0
        assert "victim-x" in tracker.current_misses

    def test_tracker_idle_without_expectations(self):
        dep = build_home(health=False)
        tracker = ContainmentTracker(dep, expected=())
        dep.run(until=3.0)
        assert tracker.miss_ticks == 0 and tracker.ok_ticks == 0


class TestCli:
    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_list_exits_zero(self, capsys):
        assert self._main("campaign", "--list") == 0
        out = capsys.readouterr().out
        assert "cam-default-creds" in out and "fabric-degradation" in out

    def test_unknown_name_exit_2(self, capsys):
        assert self._main("campaign", "--name", "nope") == 2
        assert "no campaign named" in capsys.readouterr().err

    def test_malformed_file_exit_2_one_line_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "name": "x", "class": "single-flaw",
            "stages": [{"name": "s", "at": 1.0, "kind": "exploit",
                        "params": {"exploit": "nope"}, "target": "cam"}],
        }))
        assert self._main("campaign", "--file", str(bad)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "stage #0" in err

    def test_unreadable_file_exit_2(self, capsys):
        assert self._main("campaign", "--file", "/no/such/file.json") == 2
        assert "error:" in capsys.readouterr().err

    def test_named_run_json_scorecard(self, capsys):
        assert self._main("campaign", "--name", "plug-backdoor-blast", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["campaign"] == "plug-backdoor-blast"
        assert payload[0]["containment_misses"] == []

    def test_file_run_round_trips_through_cli(self, tmp_path, capsys):
        doc = tmp_path / "c.json"
        doc.write_text(CAMPAIGNS["window-bruteforce"].to_json())
        assert self._main("campaign", "--file", str(doc)) == 0
        assert "fully contained" in capsys.readouterr().out

    def test_class_run(self, capsys):
        assert self._main("campaign", "--class", "automation-abuse") == 0
        out = capsys.readouterr().out
        assert out.count("campaign:") == len(campaigns_by_class("automation-abuse"))


class TestStageKinds:
    def test_registry_is_complete(self):
        assert set(STAGE_KINDS) == {
            "exploit", "command", "login", "fault", "routing-attack", "env-set"
        }

    def test_journal_digest_ignores_process_global_ids(self):
        dep = build_home(health=False)
        dep.sim.journal.record("attack-step", device="cam", pkt=1, proto="x")
        d1 = journal_digest(dep.sim.journal)
        dep2 = build_home(health=False)
        dep2.sim.journal.record("attack-step", device="cam", pkt=999, proto="x")
        d2 = journal_digest(dep2.sim.journal)
        assert d1 == d2
