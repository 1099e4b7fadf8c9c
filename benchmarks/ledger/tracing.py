"""The traced run: per-layer self time, measured from outside.

Class-level timing wrappers go around each layer's public entry points
*before* the deployment is built (bound methods captured at build time --
channel handlers, scheduled callbacks -- then resolve to the wrapper).
Every call pushes a frame on an in-memory stack; when it returns, its
duration is charged to its parent's children total, and

    self time = duration - time spent in wrapped children

is folded into the layer's totals (two million spans a run are not kept
one by one; the folded totals are what is written out).  Recursion needs
no special case: a nested call of the same layer is just a child, so its
time is subtracted from the outer call once and counted once.

A wrapper is not free: part of its cost lands inside the callee's own
reading (``inner``: the call into the original, half a clock read each
side) and the rest in the caller's (``outer``: the call into the wrapper,
its bookkeeping, the return).  :func:`calibrate` measures both on an empty
call -- but in place a wrapper costs two to three times that (every
bytecode of it is an indirect branch the predictor has not seen in that
context, and the heavier the workload the worse), so the traced
subprocess takes the total *in place*, from its traced and untraced runs
of the same workload (see ``run.run_traced``), and keeps only ``inner``
from here.  :func:`corrected` subtracts both where they fell.

The wrappers are only ever installed in a process of their own
(``run.py --trace 1``) and removed when the run ends; no end-to-end
number is taken while they are in place.
"""

from __future__ import annotations

import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable

import hostclock

ROOT = "netsim.sim"
HARNESS = "ledger.harness"

#: layer -> public entry points, as ``module:Class.method``.  ``netsim.sim``
#: is the root: what is left of ``Simulator.run`` once every wrapped call
#: below it is subtracted (event dispatch, plus callbacks that are private
#: methods, e.g. ``Link._deliver`` or ``ReactivePipeline._flush``).
#:
#: The issue's list also had ``Node.receive`` and ``Switch.lookup``.  Both
#: run once per hop and neither adds a layer: ``receive`` is two counter
#: increments around ``on_packet`` (wrapped below, per node class) and
#: ``lookup`` is called from ``Switch.on_packet``, same layer.  Together
#: they were 6 of home-steady's 17 wrapped calls a packet and 4 of
#: bare-forward's 7; at 0.6-1.1 us a wrapped call in place that is a third
#: of the tracing overhead bought for no attribution, and the overhead's
#: run-to-run noise is what ``ledger.closure_frac`` has to live inside.
#: What a lookup costs on its own is in the isolated probes.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    ROOT: ("repro.netsim.simulator:Simulator.run",),
    "netsim.link": ("repro.netsim.link:Link.transmit",),
    "netsim.switch": (
        "repro.netsim.switch:Switch.on_packet",
        "repro.netsim.switch:Switch.install",
        "repro.netsim.switch:Switch.install_many",
        "repro.netsim.switch:Switch.remove_where",
        "repro.netsim.switch:Switch.set_active_version",
    ),
    "mboxes.host": ("repro.mboxes.base:MboxHost.on_packet",),
    "mboxes.chain": ("repro.mboxes.base:Mbox.process",),
    "mboxes.manager": (
        "repro.mboxes.manager:MboxManager.deploy",
        "repro.mboxes.manager:MboxManager.teardown",
    ),
    "sdn.channel": (
        "repro.sdn.channel:ControlChannel.send",
        "repro.sdn.channel:ControlChannel.call",
    ),
    "sdn.consistency": ("repro.sdn.consistency:ConsistentUpdater.push_two_phase",),
    "core.controller": ("repro.core.controller:IoTSecController.on_control_message",),
    "core.pipeline": (
        "repro.core.pipeline:ReactivePipeline.ingest",
        "repro.core.pipeline:ReactivePipeline.escalate",
        "repro.core.pipeline:ReactivePipeline.evaluate_device",
    ),
    "core.orchestrator": (
        "repro.core.orchestrator:PostureOrchestrator.apply_many",
        "repro.core.orchestrator:PostureOrchestrator.repin",
    ),
    "core.overload": ("repro.core.overload:IngestQueue.offer",),
    "core.ha": ("repro.core.ha:Checkpoint.capture",),
    "obs.stream": (
        "repro.obs.stream:HostStream.offer",
        "repro.obs.stream:StreamConsumer.on_batch",
    ),
    "obs.journal": ("repro.obs.journal:Journal.record",),
    "obs.trace": (
        "repro.obs.trace:Tracer.start_trace",
        "repro.obs.trace:Tracer.span",
    ),
    "obs.slo": ("repro.obs.slo:SloTracker.evaluate",),
    "devices": ("repro.devices.base:IoTDevice.on_packet",),
    "policy.ifttt": ("repro.policy.ifttt:AutomationHub.on_packet",),
    "environment": (
        "repro.environment.physics:ThermalProcess.step",
        "repro.environment.physics:SmokeProcess.step",
        "repro.environment.physics:LightProcess.step",
    ),
    # Benchmark-owned callbacks that run inside the simulation (attack
    # waves, re-arms, harvests, the collector): visible, not hidden in the
    # root's remainder.
    HARNESS: (),
}
LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS)


@dataclass(frozen=True)
class WrapperCost:
    """Reference nanoseconds one wrapped call adds, by where they land."""

    inner: float
    outer: float

    @property
    def total(self) -> float:
        return self.inner + self.outer


_WRAPPER_SOURCE = """
def make(_l_fn, _l_clock, _l_calls, _l_self_ns, _l_kids, _l_child_ns, _l_child_n):
    def wrapper({params}):
        _l_child_ns.append(0)
        _l_child_n.append(0)
        _l_start = _l_clock()
        try:
            return _l_fn({forwarded})
        finally:
            _l_took = _l_clock() - _l_start
            _l_calls[{idx}] += 1
            _l_self_ns[{idx}] += _l_took - _l_child_ns.pop()
            _l_kids[{idx}] += _l_child_n.pop()
            if _l_child_ns:
                _l_child_ns[-1] += _l_took
                _l_child_n[-1] += 1
    return wrapper
"""


def _signature_source(fn: Callable) -> tuple[str, str]:
    """``fn``'s parameter list and the matching forwarding call, as source.

    Defaults are written as ``None`` placeholders; the caller copies the
    real ``__defaults__``/``__kwdefaults__`` onto the generated function.
    """
    params, forwarded = [], []
    star_seen = False
    for p in inspect.signature(fn).parameters.values():
        default = "=None" if p.default is not p.empty else ""
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD):
            params.append(p.name + default)
            forwarded.append(p.name)
        elif p.kind is p.VAR_POSITIONAL:
            params.append("*" + p.name)
            forwarded.append("*" + p.name)
            star_seen = True
        elif p.kind is p.KEYWORD_ONLY:
            if not star_seen:
                params.append("*")
                star_seen = True
            params.append(p.name + default)
            forwarded.append(f"{p.name}={p.name}")
        else:
            params.append("**" + p.name)
            forwarded.append("**" + p.name)
    return ", ".join(params), ", ".join(forwarded)


class Ledger:
    """Self-time accounting over a fixed set of layers."""

    def __init__(
        self,
        layers: tuple[str, ...] = LAYERS,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.layers = layers
        self.clock = clock
        self._index = {name: i for i, name in enumerate(layers)}
        n = len(layers)
        #: Running raw totals, written by the wrappers.
        self.calls = [0] * n
        self.self_ns = [0] * n
        #: Wrapped calls made directly from each layer's own calls.
        self.kids = [0] * n
        #: Open frames: wrapped-children time and count, per frame.
        self._child_ns: list[int] = []
        self._child_n: list[int] = []
        #: Self time already folded (scaled to reference nanoseconds).
        self._folded_ns = [0.0] * n
        self._seen_ns = [0] * n
        #: Wrapped calls folded so far, by slice parity (even, odd).
        self.half_calls = [0, 0]
        self._seen_calls = 0
        self._patched: list[tuple[type, str, bool, Any]] = []

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, layer: str) -> Callable:
        """``fn`` with its calls charged to ``layer``.

        The wrapper is generated with ``fn``'s own parameter list: a
        ``*args, **kwargs`` shim would push every caller off the
        interpreter's exact-arity call path, a cost that would fall on
        the wrapped program rather than on anything the calibration sees.
        """
        params, forwarded = _signature_source(fn)
        source = _WRAPPER_SOURCE.format(
            params=params, forwarded=forwarded, idx=self._index[layer]
        )
        namespace: dict[str, Any] = {}
        exec(source, namespace)  # noqa: S102 - source built from a signature, above
        wrapper = namespace["make"](
            fn,
            self.clock,
            self.calls,
            self.self_ns,
            self.kids,
            self._child_ns,
            self._child_n,
        )
        wrapper.__defaults__ = getattr(fn, "__defaults__", None)
        wrapper.__kwdefaults__ = getattr(fn, "__kwdefaults__", None)
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__wrapped__ = fn
        return wrapper

    def harness_wrap(self, fn: Callable) -> Callable:
        return self.wrap(fn, HARNESS)

    def install(self) -> None:
        """Patch every entry point of :data:`ENTRY_POINTS` (public names only)."""
        for layer, points in ENTRY_POINTS.items():
            for point in points:
                module_name, __, qualified = point.partition(":")
                class_name, __, attr = qualified.partition(".")
                cls = getattr(importlib.import_module(module_name), class_name)
                assert not attr.startswith("_"), f"{point}: not a public name"
                own = attr in cls.__dict__
                original = cls.__dict__[attr] if own else None
                if isinstance(original, classmethod):
                    patched: Any = classmethod(self.wrap(original.__func__, layer))
                else:
                    patched = self.wrap(getattr(cls, attr), layer)
                setattr(cls, attr, patched)
                self._patched.append((cls, attr, own, original))

    def restore(self) -> None:
        """Undo :meth:`install` (inherited names are un-shadowed again)."""
        while self._patched:
            cls, attr, own, original = self._patched.pop()
            if own:
                setattr(cls, attr, original)
            else:
                delattr(cls, attr)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start of the timed region: forget everything seen so far."""
        assert not self._child_ns, "reset inside a wrapped call"
        n = len(self.layers)
        self.calls[:] = [0] * n
        self.self_ns[:] = [0] * n
        self.kids[:] = [0] * n
        self._folded_ns = [0.0] * n
        self._seen_ns = [0] * n
        self.half_calls = [0, 0]
        self._seen_calls = 0

    def fold(self, scale: float, parity: int = 0) -> None:
        """End of a slice: scale the self time it added to reference ns,
        and book its calls to the even or the odd half of the run."""
        for i, total in enumerate(self.self_ns):
            self._folded_ns[i] += (total - self._seen_ns[i]) * scale
            self._seen_ns[i] = total
        calls = sum(self.calls)
        self.half_calls[parity] += calls - self._seen_calls
        self._seen_calls = calls

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, wrapped calls made from them, folded self ns."""
        return {
            name: {
                "calls": self.calls[i],
                "kids": self.kids[i],
                "self_ns": self._folded_ns[i],
            }
            for i, name in enumerate(self.layers)
        }


def corrected(snapshot: dict[str, dict[str, float]], cost: WrapperCost) -> dict[str, float]:
    """Self nanoseconds per layer with the wrappers' own cost removed."""
    return {
        name: row["self_ns"] - row["calls"] * cost.inner - row["kids"] * cost.outer
        for name, row in snapshot.items()
    }


# ----------------------------------------------------------------------
# Empty-wrapper calibration
# ----------------------------------------------------------------------
class _Leaf:
    def touch(self, a: int, b: int) -> None:
        return None


def _drive(leaf: Callable[[int, int], None], n: int) -> None:
    for __ in range(n):
        leaf(1, 2)


def _idle(n: int) -> None:
    for __ in range(n):
        pass


def calibrate(calls: int = 200_000) -> WrapperCost:
    """Cost of one empty wrapped method call, in reference nanoseconds."""
    plain = _Leaf().touch
    __, idle_s = hostclock.measure(lambda: _idle(calls))
    __, plain_s = hostclock.measure(lambda: _drive(plain, calls))
    probe = Ledger(("root", "leaf"))
    leaf = probe.wrap(plain, "leaf")
    root = probe.wrap(_drive, "root")
    wall_s, wrapped_s = hostclock.measure(lambda: root(leaf, calls))
    call_ns = (plain_s - idle_s) * 1e9 / calls
    inner = probe.self_ns[1] * (wrapped_s / wall_s) / calls - call_ns
    total = (wrapped_s - plain_s) * 1e9 / calls
    return WrapperCost(inner=inner, outer=total - inner)
