"""The qualitative (abstract) environment model.

Section 4.2 proposes reasoning over "abstract models of ... devices that
capture key input-output behaviors and interactions with environment
variables".  Device classes already carry their half of that contract
(:class:`repro.devices.model.DeviceModel`); this module supplies the other
half -- a *qualitative* physics: which actuation inputs drive which
variables to which levels, with all the continuous dynamics abstracted to
"eventually settles at".

The abstraction is deliberately coarse (sound for discovery, not for
timing): the fuzzer and attack-graph builder only need to know that
``heat_watts > 0`` *can* drive ``temperature`` to ``high``, not when.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.devices.model import DeviceModel


@dataclass(frozen=True)
class ResponseRule:
    """``sum(input_key) > threshold  ==>  variable settles at level``."""

    input_key: str
    variable: str
    level: str
    threshold: float = 0.0


@dataclass(frozen=True)
class AbstractEnvironment:
    """Variables, their baselines, response rules, and exogenous variables.

    ``exogenous`` variables (occupancy, outside weather) are inputs to the
    system rather than consequences of it; the fuzzer flips them freely.
    """

    variables: tuple[tuple[str, tuple[str, ...]], ...]
    baseline: tuple[tuple[str, str], ...]
    rules: tuple[ResponseRule, ...] = ()
    exogenous: tuple[str, ...] = ()

    @classmethod
    def make(
        cls,
        variables: Mapping[str, tuple[str, ...]],
        baseline: Mapping[str, str],
        rules: Iterable[ResponseRule] = (),
        exogenous: Iterable[str] = (),
    ) -> "AbstractEnvironment":
        for name, level in baseline.items():
            if level not in variables[name]:
                raise ValueError(f"baseline {name}={level!r} not in domain")
        return cls(
            variables=tuple(sorted(variables.items())),
            baseline=tuple(sorted(baseline.items())),
            rules=tuple(rules),
            exogenous=tuple(sorted(exogenous)),
        )

    def levels_of(self, name: str) -> tuple[str, ...]:
        for var, levels in self.variables:
            if var == name:
                return levels
        raise KeyError(name)

    def settle(
        self,
        inputs: Mapping[str, float],
        held: Mapping[str, str],
        exogenous_levels: Mapping[str, str] | None = None,
    ) -> dict[str, str]:
        """The steady-state level of every variable.

        Precedence (highest first): device *holds* (state bindings), then
        exogenous settings, then active response rules (later rules win
        among simultaneously-active ones), then baselines.
        """
        levels = dict(self.baseline)
        for rule in self.rules:
            if inputs.get(rule.input_key, 0.0) > rule.threshold:
                levels[rule.variable] = rule.level
        if exogenous_levels:
            levels.update(
                {k: v for k, v in exogenous_levels.items() if k in dict(self.variables)}
            )
        levels.update({k: v for k, v in held.items() if k in dict(self.variables)})
        return levels


def default_world() -> AbstractEnvironment:
    """The abstract twin of :mod:`repro.environment.physics`' defaults."""
    return AbstractEnvironment.make(
        variables={
            "temperature": ("low", "normal", "high"),
            "smoke": ("clear", "detected"),
            "illuminance": ("dark", "bright"),
            "window": ("closed", "open"),
            "door": ("locked", "unlocked"),
            "occupancy": ("absent", "present"),
        },
        baseline={
            "temperature": "normal",
            "smoke": "clear",
            "illuminance": "dark",
            "window": "closed",
            "door": "locked",
            "occupancy": "absent",
        },
        rules=(
            ResponseRule("heat_watts", "temperature", "high"),
            ResponseRule("cool_watts", "temperature", "low"),
            ResponseRule("hazard", "smoke", "detected"),
            ResponseRule("lamp_lux", "illuminance", "bright"),
            ResponseRule("ambient_lux", "illuminance", "bright"),
        ),
        exogenous=("occupancy",),
    )


@dataclass(frozen=True)
class JointState:
    """One abstract state of the whole deployment: device states plus
    environment levels.  Hashable for visited-set bookkeeping."""

    device_states: tuple[tuple[str, str], ...]
    env_levels: tuple[tuple[str, str], ...]

    @classmethod
    def make(
        cls, device_states: Mapping[str, str], env_levels: Mapping[str, str]
    ) -> "JointState":
        return cls(
            tuple(sorted(device_states.items())),
            tuple(sorted(env_levels.items())),
        )

    def devices(self) -> dict[str, str]:
        return dict(self.device_states)

    def env(self) -> dict[str, str]:
        return dict(self.env_levels)


class AbstractWorld:
    """The joint transition system over devices + abstract environment.

    This is the object section 4.2's fuzzer explores: states are
    :class:`JointState`, actions are device commands or exogenous flips,
    and the step function closes over trigger cascades to a fixed point.
    """

    MAX_CASCADE = 20  # trigger-cascade fixpoint guard

    def __init__(
        self,
        devices: Mapping[str, DeviceModel],
        environment: AbstractEnvironment | None = None,
    ) -> None:
        self.devices = dict(devices)
        self.environment = environment or default_world()

    # ------------------------------------------------------------------
    def initial_state(self, exogenous: Mapping[str, str] | None = None) -> JointState:
        device_states = {name: model.initial for name, model in self.devices.items()}
        return self._close(device_states, dict(exogenous or {}))

    def actions(self) -> list[tuple[str, str, str]]:
        """All actions: ``("cmd", device, command)`` and
        ``("env", variable, level)`` for exogenous variables."""
        acts: list[tuple[str, str, str]] = []
        for name, model in sorted(self.devices.items()):
            for command in model.commands:
                acts.append(("cmd", name, command))
        for variable in self.environment.exogenous:
            for level in self.environment.levels_of(variable):
                acts.append(("env", variable, level))
        return acts

    def step(
        self, state: JointState, action: tuple[str, str, str]
    ) -> JointState:
        """Apply one action and settle the world (triggers cascade)."""
        device_states = state.devices()
        exogenous = {
            k: v for k, v in state.env().items() if k in self.environment.exogenous
        }
        kind, subject, value = action
        if kind == "cmd":
            model = self.devices[subject]
            device_states[subject] = model.next_state(device_states[subject], value)
        elif kind == "env":
            if subject not in self.environment.exogenous:
                raise ValueError(f"{subject} is not exogenous")
            exogenous[subject] = value
        else:
            raise ValueError(f"unknown action kind {kind!r}")
        return self._close(device_states, exogenous)

    def _close(
        self, device_states: dict[str, str], exogenous: dict[str, str]
    ) -> JointState:
        """Settle env then fire triggers repeatedly until nothing changes."""
        for __ in range(self.MAX_CASCADE):
            env_levels = self._settle(device_states, exogenous)
            changed = False
            for name, model in self.devices.items():
                for trigger in model.triggers:
                    if env_levels.get(trigger.variable) == trigger.level:
                        nxt = model.next_state(device_states[name], trigger.command)
                        if nxt != device_states[name]:
                            device_states[name] = nxt
                            changed = True
            if not changed:
                return JointState.make(device_states, env_levels)
        return JointState.make(device_states, self._settle(device_states, exogenous))

    def _settle(
        self, device_states: dict[str, str], exogenous: dict[str, str]
    ) -> dict[str, str]:
        inputs: dict[str, float] = {}
        held: dict[str, str] = {}
        for name, model in self.devices.items():
            for key, value in model.effect_inputs(device_states[name]).items():
                inputs[key] = inputs.get(key, 0.0) + value
            for variable, level in model.binding_for(device_states[name]):
                held[variable] = level
        return self.environment.settle(inputs, held, exogenous)
