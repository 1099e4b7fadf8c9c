"""Empirical model extraction from an instrumented testbed.

Section 4.2: "One potential approach to build these abstract model of
devices and their effect on the environment is to observe deeply
instrumented (controlled) IoT testbeds ... actually actuating devices into
different states and observing their effects on the environment ...
Automatically extracting these model specifications is an interesting
direction for future work."

We implement that future work against the *concrete* simulator: the
extractor drives a real :class:`IoTDevice` through its commands inside a
real :class:`Environment`, watches which variables move, and emits
qualitative response facts.  Tests then check the extracted facts agree
with the hand-written abstract world -- closing the loop between the two
model layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.learning.abstract_env import ResponseRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.devices.base import IoTDevice
    from repro.environment.engine import Environment


@dataclass(frozen=True)
class ObservedEffect:
    """Actuating ``device`` into ``state`` moved ``variable`` to ``level``."""

    device: str
    state: str
    variable: str
    level: str


@dataclass
class ExtractionReport:
    """Everything one testbed session learned."""

    device: str
    kind: str
    states_probed: list[str] = field(default_factory=list)
    effects: list[ObservedEffect] = field(default_factory=list)

    def effects_for_state(self, state: str) -> list[ObservedEffect]:
        return [e for e in self.effects if e.state == state]

    def as_response_rules(self) -> list[ResponseRule]:
        """Crude rule synthesis: each observed effect becomes a response
        rule keyed on a synthetic per-device-state input.  Useful for
        merging many reports into a shared world model."""
        return [
            ResponseRule(
                input_key=f"{self.device}:{effect.state}",
                variable=effect.variable,
                level=effect.level,
            )
            for effect in self.effects
        ]


class ModelExtractor:
    """Drives one device through its states and records the fallout.

    The probe works on a *dedicated* environment: between probes it resets
    every continuous variable to its initial value so effects do not bleed
    across states.  ``settle_time`` is how long physics runs (simulated)
    after each actuation before levels are read.
    """

    def __init__(
        self,
        env: "Environment",
        settle_time: float = 600.0,
    ) -> None:
        self.env = env
        self.settle_time = settle_time

    def _baseline(self) -> dict[str, str]:
        self._let_settle()
        return self.env.snapshot()

    def _let_settle(self) -> None:
        ticks = max(1, int(self.settle_time / self.env.tick))
        for __ in range(ticks):
            self.env.step_once()

    def extract(self, device: "IoTDevice") -> ExtractionReport:
        """Probe every reachable state of ``device``."""
        report = ExtractionReport(device=device.name, kind=device.kind)
        model = device.model
        initial_state = device.state
        baseline = self._baseline()

        for state in sorted(model.reachable_states()):
            # Drive the device into `state` by direct actuation (this is a
            # *controlled testbed*: we own the device).
            device.state = state
            device._apply_effects()
            self._let_settle()
            report.states_probed.append(state)
            after = self.env.snapshot()
            for variable, level in after.items():
                if baseline.get(variable) != level:
                    report.effects.append(
                        ObservedEffect(
                            device=device.name,
                            state=state,
                            variable=variable,
                            level=level,
                        )
                    )
            # Reset for the next probe.
            device.state = initial_state
            device._apply_effects()
            self._let_settle()
        return report


def validate_against_model(report: ExtractionReport, device: "IoTDevice") -> list[str]:
    """Cross-check extracted effects against the declared abstract model.

    Returns human-readable discrepancies (empty = the device behaves as its
    datasheet claims -- or at least as far as this testbed can see).
    """
    problems = []
    declared_inputs = device.model.affected_inputs()
    declared_bindings = {var for __, var, __lvl in device.model.state_bindings}
    for effect in report.effects:
        state_inputs = device.model.effect_inputs(effect.state)
        held = dict(device.model.binding_for(effect.state))
        if effect.variable in held:
            if held[effect.variable] != effect.level:
                problems.append(
                    f"{effect.device}.{effect.state}: binding says "
                    f"{effect.variable}={held[effect.variable]}, observed {effect.level}"
                )
        elif not state_inputs and not declared_bindings & {effect.variable}:
            if not declared_inputs:
                problems.append(
                    f"{effect.device}.{effect.state}: moved {effect.variable} "
                    f"to {effect.level} but the model declares no effects"
                )
    return problems
