"""The environment engine.

One :class:`Environment` per deployment.  Devices contribute *actuation
inputs* (``set_input``) and read variables through sensors; processes
integrate the variables forward on a fixed tick driven by the shared
simulator.  Policy-level observers subscribe to level changes.
``levels_version`` counts every change to what a sensor can read (a level
change, a variable added), so a reader can keep what it built from the
levels until the counter moves.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.environment.physics import Process
from repro.environment.variables import (
    ContinuousVariable,
    DiscreteVariable,
    EnvironmentVariable,
    snapshot,
)
from repro.netsim.simulator import Simulator


class Environment:
    """A set of variables plus the processes that evolve them."""

    def __init__(self, sim: Simulator, tick: float = 1.0) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.sim = sim
        self.tick = tick
        self.variables: dict[str, EnvironmentVariable] = {}
        self.processes: list[Process] = []
        self.inputs: dict[str, float] = {}
        self._input_contributions: dict[str, dict[str, float]] = {}
        self._level_observers: list[Callable[[str, str], None]] = []
        #: Bumped by every level change and every added variable.
        self.levels_version = 0
        self._ticker_stop: Callable[[], None] | None = None

    @property
    def now(self) -> float:
        return self.sim.now

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_variable(self, variable: EnvironmentVariable) -> EnvironmentVariable:
        if variable.name in self.variables:
            raise ValueError(f"duplicate variable {variable.name!r}")
        self.variables[variable.name] = variable
        self.levels_version += 1
        variable.observe(self._on_level_change)
        return variable

    def add_continuous(self, name: str, **kwargs: object) -> ContinuousVariable:
        var = ContinuousVariable(name, **kwargs)  # type: ignore[arg-type]
        self.add_variable(var)
        return var

    def add_discrete(self, name: str, domain: Iterable[str], initial: str | None = None) -> DiscreteVariable:
        var = DiscreteVariable(name, tuple(domain), initial)
        self.add_variable(var)
        return var

    def continuous(self, name: str) -> ContinuousVariable:
        var = self.variables[name]
        if not isinstance(var, ContinuousVariable):
            raise TypeError(f"{name} is not continuous")
        return var

    def discrete(self, name: str) -> DiscreteVariable:
        var = self.variables[name]
        if not isinstance(var, DiscreteVariable):
            raise TypeError(f"{name} is not discrete")
        return var

    def level(self, name: str) -> str:
        return self.variables[name].level

    def snapshot(self) -> dict[str, str]:
        """All variables as name -> level (the policy's environment state)."""
        return snapshot(self.variables)  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Actuation inputs (devices -> physics)
    # ------------------------------------------------------------------
    def set_input(self, key: str, value: float, source: str = "_default") -> None:
        """Set ``source``'s contribution to input ``key``.

        Contributions from distinct sources sum: two space heaters both add
        wattage.  A source overwrites its own previous contribution.
        """
        per_source = self._input_contributions.setdefault(key, {})
        per_source[source] = value
        self.inputs[key] = sum(per_source.values())

    def clear_input(self, key: str, source: str = "_default") -> None:
        per_source = self._input_contributions.get(key)
        if per_source is None:
            return
        per_source.pop(source, None)
        self.inputs[key] = sum(per_source.values())

    # ------------------------------------------------------------------
    # Processes and stepping
    # ------------------------------------------------------------------
    def add_process(self, process: Process) -> Process:
        self.processes.append(process)
        return process

    def start(self, until: float | None = None) -> None:
        """Begin ticking physics on the simulator clock."""
        if self._ticker_stop is not None:
            return
        self._ticker_stop = self.sim.every(self.tick, self._step, until=until)

    def stop(self) -> None:
        if self._ticker_stop is not None:
            self._ticker_stop()
            self._ticker_stop = None

    def _step(self) -> None:
        for process in self.processes:
            process.step(self, self.tick)

    def step_once(self, dt: float | None = None) -> None:
        """Advance physics by one tick without the scheduler (tests)."""
        for process in self.processes:
            process.step(self, dt if dt is not None else self.tick)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def on_level_change(self, callback: Callable[[str, str], None]) -> None:
        """Subscribe to ``(variable_name, new_level)`` events."""
        self._level_observers.append(callback)

    def _on_level_change(self, variable: EnvironmentVariable) -> None:
        self.levels_version += 1
        for callback in list(self._level_observers):
            callback(variable.name, variable.level)

    def __repr__(self) -> str:
        return f"Environment({self.snapshot()!r})"
