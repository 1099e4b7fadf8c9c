"""Tests for attack-graph hardening plans."""

from repro.devices.library import fire_alarm, smart_plug, window_actuator
from repro.learning.attackgraph import ATTACKER, AttackGraphBuilder, control, envfact
from repro.policy.ifttt import Recipe


class TestHardeningPlan:
    def build(self, sim, with_recipe=True):
        devices = {
            d.name: (d.model, d.firmware)
            for d in (
                smart_plug("heater_plug", sim, load={"heat_watts": 1500.0}),
                fire_alarm("alarm", sim),
                window_actuator("window", sim),
            )
        }
        recipes = (
            [Recipe("cool-down", "env:temperature", "high", "window", "open")]
            if with_recipe
            else []
        )
        return AttackGraphBuilder(devices, recipes=recipes)

    def test_plan_severs_all_paths(self, sim):
        builder = self.build(sim)
        goal = envfact("window", "open")
        assert builder.can_reach(goal)
        plan = builder.hardening_plan(goal)
        assert plan  # something to do
        g = builder.graph.copy()
        for device, __mitigation in plan:
            g.remove_node(control(device))
        import networkx as nx

        assert not (goal in g and nx.has_path(g, ATTACKER, goal))

    def test_plan_names_sensible_mitigations(self, sim):
        builder = self.build(sim)
        plan = dict(builder.hardening_plan(envfact("window", "open")))
        # the window's weak password needs the proxy; the plug's exposed
        # access needs the firewall
        if "window" in plan:
            assert plan["window"] == "password_proxy"
        if "heater_plug" in plan:
            assert plan["heater_plug"] == "stateful_firewall"
        assert len(plan) >= 2  # two disjoint paths here

    def test_single_path_needs_single_fix(self, sim):
        builder = self.build(sim, with_recipe=False)
        plan = builder.hardening_plan(envfact("window", "open"))
        assert len(plan) == 1
        assert plan[0][0] == "window"

    def test_unreachable_goal_empty_plan(self, sim):
        builder = self.build(sim)
        assert builder.hardening_plan(envfact("door", "unlocked")) == []
