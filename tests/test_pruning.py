"""Tests for state-space pruning, including the soundness property."""

from repro.policy.builder import PolicyBuilder
from repro.policy.context import SUSPICIOUS, ctx
from repro.policy.posture import block_commands, quarantine
from repro.policy.pruning import (
    PrunedPolicy,
    analyze,
    collapse_classes,
    crossing_devices,
    independence_groups,
    relevant_variables,
)


def two_group_policy(extra_devices=0):
    """Two independent clusters: (alarm, window) and (plug, oven);
    optionally extra unconstrained devices to inflate |S|."""
    builder = (
        PolicyBuilder()
        .device("alarm")
        .device("window")
        .device("plug")
        .device("oven")
        .env("smoke", ("clear", "detected"))
        .env("occupancy", ("absent", "present"))
        .when(ctx("alarm"), SUSPICIOUS)
        .give("window", block_commands("open"))
        .when("env:occupancy", "absent")
        .give("oven", block_commands("on"))
        .when(ctx("plug"), SUSPICIOUS)
        .give("plug", quarantine("plug"))
    )
    for i in range(extra_devices):
        builder.device(f"extra{i}")
    return builder.build()


def test_relevant_variables():
    policy = two_group_policy()
    assert relevant_variables(policy, "window") == {"ctx:alarm"}
    assert relevant_variables(policy, "oven") == {"env:occupancy"}
    assert relevant_variables(policy, "plug") == {"ctx:plug"}
    assert relevant_variables(policy, "alarm") == set()


def test_independence_groups_separate_clusters():
    policy = two_group_policy()
    groups = independence_groups(policy)
    by_member = {frozenset(g) for g in groups if len(g) > 1}
    assert frozenset({"ctx:alarm", "ctx:window"}) in by_member
    assert frozenset({"env:occupancy", "ctx:oven"}) in by_member
    # plug's rule references only its own context -> singleton group
    assert all("ctx:plug" not in g or len(g) == 1 for g in groups)


def test_pruned_policy_equals_brute_force_everywhere():
    policy = two_group_policy()
    pruned = PrunedPolicy(policy)
    for state in policy.enumerate_states():
        for device in policy.devices:
            assert pruned.posture_for(state, device) == policy.posture_for(
                state, device
            ), (state, device)


def test_projection_sizes_tiny_versus_naive():
    policy = two_group_policy(extra_devices=6)
    report = analyze(policy)
    # naive: 3^10 devices x 2 x 2 env
    assert report.naive_states == 3**10 * 4
    assert report.projected_entries <= 3  # one non-default entry per ruled device
    assert report.reduction_factor > 10_000


def test_collapse_classes_counts_distinct_assignments():
    policy = two_group_policy()
    classes = collapse_classes(policy)
    # 3 independent binary posture decisions -> at most 2^3 = 8 classes
    assert classes is not None
    assert 2 <= classes <= 8


def test_collapse_respects_limit():
    policy = two_group_policy(extra_devices=10)
    assert collapse_classes(policy, enumerate_limit=1000) is None


def test_report_fields():
    policy = two_group_policy()
    report = analyze(policy)
    assert report.devices == 4
    assert report.variables == 6
    assert report.independence_group_count >= 2
    assert report.per_device["window"] == 1
    assert report.per_device["alarm"] == 0


def test_unruled_device_always_default():
    policy = two_group_policy()
    pruned = PrunedPolicy(policy)
    state = next(policy.enumerate_states())
    assert pruned.posture_for(state, "alarm") is policy.default_posture
    assert pruned.posture_for(state, "not-a-device") is policy.default_posture


def coupled_pairs_policy():
    """Two coupled pairs: (alarm->window) and (sensor->oven); bulb alone."""
    return (
        PolicyBuilder()
        .device("alarm")
        .device("window")
        .device("sensor")
        .device("oven")
        .device("bulb")
        .when(ctx("alarm"), SUSPICIOUS).give("window", block_commands("open"))
        .when(ctx("sensor"), SUSPICIOUS).give("oven", block_commands("on"))
        .when(ctx("bulb"), SUSPICIOUS).give("bulb", block_commands("on"))
        .build()
    )


PAIRS_PLACED = {"alarm": 0, "window": 0, "sensor": 1, "oven": 1, "bulb": 2}


def test_no_crossing_devices_when_pairs_share_a_partition():
    assert crossing_devices(coupled_pairs_policy(), PAIRS_PLACED) == set()


def test_crossing_detected_for_a_split_pair():
    partition = {**PAIRS_PLACED, "window": 3}
    crossing = crossing_devices(coupled_pairs_policy(), partition)
    # alarm's context drives window, and window's rules test alarm's context
    assert crossing == {"alarm", "window"}


def test_crossing_devices_tolerates_unplaced_devices():
    """A device absent from the partition owns no variables; a coupled
    peer placed elsewhere makes it crossing.  Unrelated pairs stay local."""
    partition = {k: v for k, v in PAIRS_PLACED.items() if k != "alarm"}
    crossing = crossing_devices(coupled_pairs_policy(), partition)
    assert "alarm" in crossing
    assert "sensor" not in crossing and "oven" not in crossing
