"""Tests for the executable IoT device node."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import protocol
from repro.devices.base import IoTDevice
from repro.devices.firmware import Credential, Firmware
from repro.devices.model import DeviceModel, EnvEffect, EnvTrigger
from repro.environment.engine import Environment
from repro.environment.physics import ThermalProcess
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator


PLUG_MODEL = DeviceModel(
    kind="plug",
    states=("off", "on"),
    initial="off",
    transitions={("off", "on"): "on", ("on", "off"): "off"},
    effects=(EnvEffect.make("on", heat_watts=1000.0),),
)


def make_device(sim, firmware=None, model=PLUG_MODEL, env=None):
    firmware = firmware or Firmware(
        vendor="v", model="m", credentials=[Credential("owner", "secret")]
    )
    device = IoTDevice("dev", sim, model, firmware, env=env)
    client = Host("client", sim)
    Link(sim, device, client, latency=0.001)
    return device, client


def test_login_success_creates_session(sim):
    device, client = make_device(sim)
    client.send(protocol.login("client", "dev", "owner", "secret"))
    sim.run()
    reply = client.inbox[-1]
    assert protocol.is_ok(reply)
    assert reply.payload["session"] in device.sessions


def test_login_failure_denied_and_logged(sim):
    device, client = make_device(sim)
    client.send(protocol.login("client", "dev", "owner", "wrong"))
    sim.run()
    assert protocol.is_denied(client.inbox[-1])
    assert device.login_log[-1][3] is False


def test_control_requires_session(sim):
    device, client = make_device(sim)
    client.send(protocol.command("client", "dev", "on"))
    sim.run()
    assert device.state == "off"
    assert protocol.is_denied(client.inbox[-1])
    assert not device.is_compromised()


def test_control_with_session(sim):
    device, client = make_device(sim)
    client.send(protocol.login("client", "dev", "owner", "secret"))
    sim.run()
    token = client.inbox[-1].payload["session"]
    client.send(protocol.command("client", "dev", "on", session=token))
    sim.run()
    assert device.state == "on"
    assert not device.is_compromised()  # authenticated control is legit


def test_backdoor_bypasses_auth_and_marks_compromise(sim):
    firmware = Firmware(vendor="v", model="m", backdoor_port=49153)
    device, client = make_device(sim, firmware=firmware)
    client.send(protocol.command("client", "dev", "on", dport=49153))
    sim.run()
    assert device.state == "on"
    assert device.compromised_by == ["client"]
    assert device.accepted_commands(via="backdoor")


def test_no_auth_firmware_accepts_any_command(sim):
    firmware = Firmware(vendor="v", model="m", requires_auth_for_control=False)
    device, client = make_device(sim, firmware=firmware)
    client.send(protocol.command("client", "dev", "on"))
    sim.run()
    assert device.state == "on"
    assert device.is_compromised()


def test_open_port_acts_as_control_channel(sim):
    firmware = Firmware(vendor="v", model="m", open_ports=(9999,))
    device, client = make_device(sim, firmware=firmware)
    client.send(protocol.command("client", "dev", "on", dport=9999))
    sim.run()
    assert device.state == "on"


def test_closed_port_silently_drops(sim):
    device, client = make_device(sim)
    client.send(protocol.command("client", "dev", "on", dport=31337))
    sim.run()
    assert device.state == "off"
    assert len(client.inbox) == 0


def test_mgmt_get_requires_session_unless_exposed(sim):
    device, client = make_device(sim)
    client.send(protocol.get_resource("client", "dev", "status"))
    sim.run()
    assert protocol.is_denied(client.inbox[-1])

    exposed = Firmware(vendor="v", model="m", open_ports=(80,))
    device2 = IoTDevice("dev2", sim, PLUG_MODEL, exposed)
    Link(sim, device2, client, latency=0.001)
    client.send(
        protocol.get_resource("client", "dev2", "status"), client.port_to("dev2")
    )
    sim.run()
    assert protocol.is_ok(client.inbox[-1])
    assert client.inbox[-1].payload["data"]["state"] == "off"


def test_dns_resolver_amplifies_only_when_service_present(sim):
    device, client = make_device(sim)
    client.send(protocol.dns_query("client", "dev", "example.com"))
    sim.run()
    assert client.inbox == []  # no resolver service

    fw = Firmware(vendor="v", model="m", services=("open_dns_resolver",))
    resolver = IoTDevice("resolver", sim, PLUG_MODEL, fw)
    Link(sim, resolver, client, latency=0.001)
    query = protocol.dns_query("client", "resolver", "example.com")
    client.send(query, client.port_to("resolver"))
    sim.run()
    assert len(client.inbox) == 1
    assert client.inbox[0].size == query.size * 8
    assert resolver.dns_replies == 1


def test_effects_published_to_environment(sim):
    env = Environment(sim)
    env.add_continuous("temperature", initial=20.0)
    device, client = make_device(sim, env=env)
    device.apply_command("on", src="test", via="local")
    assert env.inputs.get("heat_watts") == 1000.0
    device.apply_command("off", src="test", via="local")
    assert env.inputs.get("heat_watts") == 0.0


def test_env_trigger_fires_command(sim):
    env = Environment(sim)
    env.add_discrete("smoke", ("clear", "detected"))
    model = DeviceModel(
        kind="alarm",
        states=("ok", "alarm"),
        initial="ok",
        transitions={("ok", "test"): "alarm"},
        triggers=(EnvTrigger("smoke", "detected", "test"),),
    )
    device = IoTDevice("alarm", sim, model, Firmware(vendor="v", model="m"), env=env)
    env.discrete("smoke").set("detected")
    assert device.state == "alarm"
    assert device.command_log[-1].via == "trigger"


def test_sensor_readings(sim):
    env = Environment(sim)
    env.add_discrete("occupancy", ("absent", "present"), initial="present")
    model = DeviceModel(
        kind="cam",
        states=("on",),
        initial="on",
        sensors=(("person", "occupancy"),),
    )
    device = IoTDevice("cam", sim, model, Firmware(vendor="v", model="m"), env=env)
    assert device.sensor_readings() == {"person": "present"}


CAM_MODEL = DeviceModel(
    kind="cam",
    states=("on",),
    initial="on",
    sensors=(("person", "occupancy"), ("temperature", "temperature"), ("smoke", "smoke")),
)


def fresh_readings(env, model):
    """What ``sensor_readings`` returned when it built a dict every call."""
    return {
        key: env.variables[name].level
        for key, name in model.sensors
        if name in env.variables
    }


def test_reports_share_one_readings_dict_until_a_sensed_level_changes(sim):
    env = Environment(sim)
    occupancy = env.add_discrete("occupancy", ("absent", "present"), initial="present")
    device, client = make_device(sim, model=CAM_MODEL, env=env)
    device.report_to, device.telemetry_period = "client", 1.0
    device.start_telemetry()
    sim.run(until=3.5)
    first = [p.payload["readings"] for p in client.inbox]
    assert len(first) == 3 and first[0] is first[1] is first[2]
    occupancy.set("absent")
    sim.run(until=5.5)
    later = [p.payload["readings"] for p in client.inbox[3:]]
    assert later[0] is later[1] and later[0] is not first[0]
    assert first[0] == {"person": "present"} and later[0] == {"person": "absent"}
    env.add_discrete("smoke", ("clear", "detected"))  # a new sensed variable
    sim.run(until=6.5)
    assert client.inbox[-1].payload["readings"] == {"person": "absent", "smoke": "clear"}


DOMAINS = {
    "occupancy": ("absent", "present"),
    "smoke": ("clear", "detected"),
    "window": ("closed", "open"),
}

#: Steps over an environment a camera senses: level sets, physics ticks,
#: heat inputs and variables added mid-run (the window is not sensed).
HISTORIES = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["occupancy", "smoke"]), st.sampled_from([0, 1])),
        st.tuples(st.just("temperature"), st.floats(-10.0, 50.0)),
        st.tuples(st.just("heat"), st.sampled_from([0.0, 1000.0, 50_000.0])),
        st.tuples(st.just("tick"), st.integers(1, 30)),
        st.tuples(st.just("add"), st.sampled_from([*DOMAINS, "temperature"])),
    ),
    max_size=30,
)


@given(HISTORIES)
@settings(max_examples=80, deadline=None)
def test_cached_readings_equal_a_fresh_build_after_any_history(history):
    sim = Simulator()
    env = Environment(sim)
    env.add_process(ThermalProcess(leak_rate=0.01))
    device, __ = make_device(sim, model=CAM_MODEL, env=env)
    for op, arg in history:
        if op == "add" and arg == "temperature" and arg not in env.variables:
            env.add_continuous(
                arg, initial=20.0, thresholds=(18.0, 26.0), level_names=("cold", "normal", "hot")
            )
        elif op == "add" and arg not in env.variables:
            env.add_discrete(arg, DOMAINS[arg])
        elif op == "heat":
            env.set_input("heat_watts", arg)
        elif op == "tick" and "temperature" in env.variables:
            env.start()
            sim.run(until=sim.now + arg)
            env.stop()
        elif op == "temperature" and op in env.variables:
            env.variables[op].set(arg)
        elif op in DOMAINS and op in env.variables:
            env.variables[op].set(DOMAINS[op][arg])
        cached = device.sensor_readings()
        assert cached == fresh_readings(env, CAM_MODEL)
        assert device.sensor_readings() is cached  # nothing moved in between


def test_telemetry_reports(sim):
    device, client = make_device(sim)
    device.report_to = "client"
    device.telemetry_period = 5.0
    device.start_telemetry()
    sim.run(until=11.0)
    reports = [p for p in client.inbox if p.payload.get("action") == "telemetry"]
    assert len(reports) == 2
    assert reports[0].payload["state"] == "off"
    device.stop_telemetry()
    sim.run(until=30.0)
    assert len([p for p in client.inbox if p.payload.get("action") == "telemetry"]) == 2


def test_rejected_command_logged_not_applied(sim):
    device, client = make_device(sim)
    client.send(protocol.command("client", "dev", "on"))
    sim.run()
    record = device.command_log[-1]
    assert record.accepted is False
    assert record.state_before == record.state_after == "off"
