"""Host-speed calibration: wall time in *reference-host* seconds.

This class of machine (a 2-vCPU VM on a shared host) switches between
speed states at every time scale from milliseconds to tens of seconds:
the same pure-Python loop takes 80 ms or 102 ms or 130 ms depending on
what the neighbours are doing, and raw ``pkts_per_s`` of one workload on
one commit spreads 29% (IQR over median).  No bound the benchmark could
fix survives that, so every host-time reading is taken next to a tiny
fixed calibration loop (:func:`spin`) and scaled by how slow the host was
*at that moment*:

    reference seconds = wall seconds * SPIN_REF_S / spin seconds

The timed region of a run is cut into slices of simulated time with one
spin between each pair (:func:`run_sliced`), so a speed change mid-run is
followed within a few tens of milliseconds.  The spin touches nothing of
``repro`` -- an optimisation of the system can never speed the yardstick
up with it.
Raw wall-clock readings are kept beside every calibrated one.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Callable

#: Heap operations per spin (about 2 ms).
SPIN_OPS = 6000
#: What one spin takes on the reference host (this repo's 2.1 GHz Xeon
#: sandbox in its fast state): the unit every calibrated reading is in.
SPIN_REF_S = 0.00210

#: Spins taken either side of a one-off measurement (:func:`measure`).
_SPINS = 3

_perf = time.perf_counter


def spin(ops: int = SPIN_OPS) -> float:
    """Run the calibration loop once; returns its wall seconds."""
    heap: list[tuple[int, int]] = []
    start = _perf()
    for i in range(ops):
        heappush(heap, (i * 7919 % 1000, i))
        if len(heap) > 64:
            heappop(heap)
    return _perf() - start


def measure(fn: Callable[[], object]) -> tuple[float, float]:
    """Time ``fn()`` between spins: ``(wall seconds, reference seconds)``."""
    before = sum(spin() for __ in range(_SPINS))
    start = _perf()
    fn()
    wall = _perf() - start
    after = sum(spin() for __ in range(_SPINS))
    return wall, wall * SPIN_REF_S * 2 * _SPINS / (before + after)


def run_sliced(run) -> None:
    """Step ``run`` through its timed horizon with a spin between slices.

    ``run`` has ``slices``, ``step(index)`` and ``account(wall, scale)``;
    every slice is scaled by the mean of its two neighbouring spins.
    """
    before = spin()
    for index in range(run.slices):
        start = _perf()
        run.step(index)
        took = _perf() - start
        after = spin()
        run.account(took, SPIN_REF_S * 2 / (before + after))
        before = after
