"""Tests for the global view."""

from repro.core.view import GlobalView


class TestGlobalView:
    def test_set_get(self, sim):
        view = GlobalView(sim)
        assert view.get("ctx:cam") is None
        assert view.set("ctx:cam", "normal") is True
        assert view.get("ctx:cam") == "normal"

    def test_set_same_value_returns_false(self, sim):
        view = GlobalView(sim)
        view.set("k", "v")
        assert view.set("k", "v") is False
        assert view.set("k", "w") is True

    def test_change_notification(self, sim):
        view = GlobalView(sim)
        changes = []
        view.subscribe(lambda k, old, new: changes.append((k, old, new)))
        view.set("k", "a")
        view.set("k", "a")  # no change -> no event
        view.set("k", "b")
        assert changes == [("k", None, "a"), ("k", "a", "b")]

    def test_age_tracks_refresh(self, sim):
        view = GlobalView(sim)
        view.set("k", "v")
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert view.age("k") == 10.0
        view.set("k", "v")  # refresh without change
        assert view.age("k") == 0.0
        assert view.age("ghost") is None

    def test_system_state_with_defaults(self, sim):
        view = GlobalView(sim)
        view.set("ctx:cam", "suspicious")
        state = view.system_state(
            ["ctx:cam", "env:smoke"], defaults={"env:smoke": "clear"}
        )
        assert state["ctx:cam"] == "suspicious"
        assert state["env:smoke"] == "clear"

    def test_missing_key_without_default_is_unknown(self, sim):
        view = GlobalView(sim)
        state = view.system_state(["env:ghost"])
        assert state["env:ghost"] == "unknown"

    def test_snapshot(self, sim):
        view = GlobalView(sim)
        view.set("a", "1")
        view.set("b", "2")
        assert view.snapshot() == {"a": "1", "b": "2"}
