"""Tests for IFTTT recipes, the Table 2 corpus, and the runtime engine."""

import random

import pytest

from repro.core.deployment import SecuredDeployment
from repro.devices.library import smart_bulb, smart_plug, window_actuator
from repro.policy.conflicts import find_recipe_conflicts
from repro.policy.fsm import PolicyFSM
from repro.policy.context import ContextDomain, SystemState, env
from repro.policy.ifttt import (
    TABLE2_COUNTS,
    TABLE2_EXAMPLES,
    AutomationHub,
    Recipe,
    generate_corpus,
    recipe_to_guard_rules,
)


def test_table2_counts_match_paper():
    assert TABLE2_COUNTS == {
        "nest_protect": 188,
        "wemo_insight": 227,
        "scout_alarm": 63,
    }


def test_table2_examples_shapes():
    assert len(TABLE2_EXAMPLES) == 3
    smoke = TABLE2_EXAMPLES[0]
    assert smoke.trigger_variable == "env:smoke"
    assert smoke.action_device == "hue_lights"


class TestCorpus:
    VOCAB = {
        f"env:var{i}": ("a", "b", "c") for i in range(8)
    }
    ACTUATORS = {f"dev{i}": ("on", "off", "open", "close") for i in range(10)}

    def test_generates_requested_count(self):
        rng = random.Random(1)
        corpus = generate_corpus(rng, self.VOCAB, self.ACTUATORS, 200)
        assert len(corpus) == 200

    def test_deterministic_with_seed(self):
        a = generate_corpus(random.Random(5), self.VOCAB, self.ACTUATORS, 50)
        b = generate_corpus(random.Random(5), self.VOCAB, self.ACTUATORS, 50)
        assert a == b

    def test_injected_conflicts_detected(self):
        rng = random.Random(2)
        corpus = generate_corpus(
            rng, self.VOCAB, self.ACTUATORS, 100, conflict_fraction=0.2
        )
        injected = {r.name for r in corpus if r.name.startswith("conflict-")}
        assert len(injected) == 20
        conflicts = find_recipe_conflicts(corpus)
        flagged_names = set()
        for conflict in conflicts:
            for r in corpus:
                if r.name in conflict.detail:
                    flagged_names.add(r.name)
        assert injected <= flagged_names  # 100% recall on the injected pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_corpus(random.Random(0), {}, self.ACTUATORS, 10)
        with pytest.raises(ValueError):
            generate_corpus(
                random.Random(0), self.VOCAB, self.ACTUATORS, 10, conflict_fraction=2.0
            )


class TestGuardTranslation:
    def test_guard_rules_block_command_outside_condition(self):
        recipe = Recipe("gate", "env:occupancy", "present", "oven", "on")
        rules = recipe_to_guard_rules(recipe, ("absent", "present"))
        assert len(rules) == 1
        policy = PolicyFSM(
            [ContextDomain(env("occupancy"), ("absent", "present"))],
            rules,
            devices=["oven"],
        )
        absent = SystemState({"env:occupancy": "absent"})
        present = SystemState({"env:occupancy": "present"})
        assert policy.posture_for(absent, "oven").name.startswith("guard-gate")
        assert policy.posture_for(present, "oven").is_permissive


class TestAutomationHub:
    def test_env_triggered_recipe_fires_over_network(self, sim):
        dep = SecuredDeployment.build(sim=sim, with_iotsec=False)
        bulb = dep.add_device(smart_bulb, "bulb")
        dep.hub.add_recipe(Recipe("smoke-light", "env:smoke", "detected", "bulb", "red"))
        dep.finalize()
        dep.env.continuous("smoke").set(0.9)
        dep.run(until=5.0)
        assert bulb.state == "red"
        assert len(dep.hub.firings_of("smoke-light")) == 1

    def test_device_state_recipe_fires_on_transition(self, sim):
        dep = SecuredDeployment.build(sim=sim, with_iotsec=False)
        win = dep.add_device(window_actuator, "win")
        plug = dep.add_device(smart_plug, "plug")
        dep.hub.add_recipe(Recipe("r", "dev:plug", "on", "win", "open"))
        dep.hub.watch_devices(lambda name: dep.devices[name].state if name in dep.devices else None)
        dep.finalize()
        sim.schedule(3.0, plug.apply_command, "on", "owner", "local")
        dep.run(until=10.0)
        assert win.state == "open"

    def test_paired_sessions_let_commands_through_auth(self, sim):
        dep = SecuredDeployment.build(sim=sim, with_iotsec=False)
        win = dep.add_device(window_actuator, "win")
        dep.hub.add_recipe(Recipe("vent", "env:smoke", "detected", "win", "open"))
        dep.finalize()
        dep.env.continuous("smoke").set(0.9)
        dep.run(until=5.0)
        # window requires auth; the hub's paired session authorizes it
        assert win.state == "open"
        assert win.command_log[-1].via == "session"

    def test_unpaired_device_commands_rejected(self, sim):
        dep = SecuredDeployment.build(sim=sim, with_iotsec=False)
        win = dep.add_device(window_actuator, "win", pair_with_hub=False)
        dep.hub.add_recipe(Recipe("vent", "env:smoke", "detected", "win", "open"))
        dep.finalize()
        dep.env.continuous("smoke").set(0.9)
        dep.run(until=5.0)
        assert win.state == "closed"


def test_hub_records_firings(sim):
    hub = AutomationHub("hub", sim)
    recipe = Recipe("r", "env:smoke", "detected", "x", "on")
    hub.add_recipe(recipe)
    hub._fire(recipe)
    assert len(hub.firings) == 1
    assert hub.firings[0].delivered is False  # no ports attached


def test_device_recipe_does_not_fire_on_startup_state(sim):
    """Edge-triggered: a device already in the trigger state when the watch
    begins must not fire the recipe (IFTTT fires on transitions)."""
    dep = SecuredDeployment.build(sim=sim, with_iotsec=False)
    win = dep.add_device(window_actuator, "win")
    plug = dep.add_device(smart_plug, "plug")
    plug.apply_command("on", src="owner", via="local")  # already on
    dep.hub.add_recipe(Recipe("r", "dev:plug", "on", "win", "open"))
    dep.hub.watch_devices(
        lambda name: dep.devices[name].state if name in dep.devices else None
    )
    dep.finalize()
    dep.run(until=10.0)
    assert win.state == "closed"
    assert dep.hub.firings == []
    # a real transition still fires
    plug.apply_command("off", src="owner", via="local")
    plug_on = lambda: plug.apply_command("on", src="owner", via="local")
    sim.schedule(1.0, plug_on)
    dep.run(until=20.0)
    assert win.state == "open"
