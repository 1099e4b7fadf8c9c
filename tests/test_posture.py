"""Tests for postures and mbox specs."""

import gc

from repro.policy.posture import (
    ALLOW_ALL,
    MboxSpec,
    Posture,
    block_commands,
    quarantine,
    require_proxy,
)


def test_allow_all_is_permissive():
    assert ALLOW_ALL.is_permissive
    assert ALLOW_ALL.module_kinds() == ()


def test_spec_make_freezes_config():
    spec = MboxSpec.make("command_filter", deny=["open", "close"])
    assert isinstance(spec.config, tuple)
    hash(spec)  # must be hashable


def test_spec_config_roundtrip():
    spec = MboxSpec.make(
        "context_gate",
        commands=["on"],
        require={"env:occupancy": "present"},
        nested={"a": [1, 2], "b": {"c": 3}},
    )
    config = spec.config_dict()
    assert config["commands"] == ["on"]
    assert config["require"] == {"env:occupancy": "present"}
    assert config["nested"] == {"a": [1, 2], "b": {"c": 3}}


def cyclic_garbage(action) -> int:
    """Objects in reference cycles that ``action()`` leaves behind: what a
    collection frees when the collector was off while it ran."""
    gc.collect()
    gc.disable()
    try:
        action()
        return gc.collect()
    finally:
        gc.enable()


def test_config_dict_leaves_no_cycles():
    # One per posture-swap element: a recursive closure left 3 objects a call.
    spec = MboxSpec.make("context_gate", commands=["on"], nested={"a": [1, 2], "b": {"c": 3}})
    assert cyclic_garbage(lambda: [spec.config_dict() for __ in range(100)]) == 0


def test_spec_empty_config():
    assert MboxSpec.make("telemetry_tap").config_dict() == {}


def test_posture_structural_equality():
    a = Posture.make("x", MboxSpec.make("command_filter", deny=["open"]))
    b = Posture.make("x", MboxSpec.make("command_filter", deny=["open"]))
    c = Posture.make("x", MboxSpec.make("command_filter", deny=["close"]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_posture_order_of_kwargs_irrelevant():
    a = MboxSpec.make("f", x=1, y=2)
    b = MboxSpec.make("f", y=2, x=1)
    assert a == b


def test_block_commands_helper():
    posture = block_commands("open", "close")
    assert posture.module_kinds() == ("command_filter",)
    assert posture.modules[0].config_dict()["deny"] == ["close", "open"]


def test_quarantine_helper():
    posture = quarantine("cam")
    assert not posture.is_permissive
    assert "stateful_firewall" in posture.module_kinds()


def test_require_proxy_helper():
    posture = require_proxy("S3cret!")
    assert posture.module_kinds() == ("password_proxy",)


def test_posture_str_readable():
    text = str(block_commands("open"))
    assert "command_filter" in text and "open" in text
    assert "allow" in str(ALLOW_ALL)
