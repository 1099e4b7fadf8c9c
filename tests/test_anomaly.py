"""Tests for behavioural anomaly profiles."""

from repro.learning.anomaly import BehaviorEvent, BehaviorProfile


def benign(n=50, context="occupancy=present"):
    return [
        BehaviorEvent(device="thermo", command="heat", source="hub", context=context)
        for __ in range(n)
    ]


class TestBehaviorProfile:
    def test_untrained_profile_abstains(self):
        profile = BehaviorProfile("thermo", min_training=20)
        event = BehaviorEvent("thermo", "heat", "attacker", "")
        assert not profile.is_anomalous(event)

    def test_known_event_not_anomalous(self):
        profile = BehaviorProfile("thermo")
        for event in benign():
            profile.observe(event)
        assert not profile.is_anomalous(benign(1)[0])

    def test_novel_source_is_anomalous(self):
        profile = BehaviorProfile("thermo")
        for event in benign():
            profile.observe(event)
        attack = BehaviorEvent("thermo", "heat", "attacker", "occupancy=present")
        assert profile.is_anomalous(attack)

    def test_context_conditioning(self):
        """The same command is normal occupied and anomalous when empty."""
        profile = BehaviorProfile("thermo", threshold=0.05)
        for event in benign(100, context="occupancy=present"):
            profile.observe(event)
        occupied = BehaviorEvent("thermo", "heat", "hub", "occupancy=present")
        empty = BehaviorEvent("thermo", "heat", "hub", "occupancy=absent")
        assert not profile.is_anomalous(occupied)
        assert profile.is_anomalous(empty)

    def test_score_ordering(self):
        profile = BehaviorProfile("thermo")
        for event in benign():
            profile.observe(event)
        common = profile.score(benign(1)[0])
        novel = profile.score(BehaviorEvent("thermo", "reboot", "attacker", "x"))
        assert novel > common
        assert 0.0 <= common <= 1.0 and 0.0 <= novel <= 1.0
