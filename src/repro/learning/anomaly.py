"""Per-device behavioural anomaly profiles.

Section 4: "applying simple anomaly detection to IoT also does not scale
since the range of possible normal behaviors is large and potentially very
dynamic and taking cross device interactions is further challenging."  Our
answer, consistent with section 3's context argument, is to make profiles
*context-conditional*: the frequency model keys on
``(command, source, context)`` rather than command alone, so "thermostat
heats while occupant present" and "thermostat heats while house empty" are
different events with different support.

:class:`BehaviorProfile` models categorical events (commands) with
Laplace-smoothed frequencies; an event is anomalous when its conditional
probability falls below threshold.  The ``anomaly_gate`` µmbox element
(:mod:`repro.mboxes.anomaly_gate`) trains and consults one per device.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class BehaviorEvent:
    """One observed control event in context."""

    device: str
    command: str
    source: str
    context: str = ""  # e.g. "occupancy=present" -- the policy-level context


class BehaviorProfile:
    """Context-conditional categorical profile for one device."""

    def __init__(self, device: str, threshold: float = 0.05, min_training: int = 20) -> None:
        self.device = device
        self.threshold = threshold
        self.min_training = min_training
        self.counts: Counter[tuple[str, str, str]] = Counter()
        self.total = 0

    def observe(self, event: BehaviorEvent) -> None:
        """Train on one benign event."""
        self.counts[(event.command, event.source, event.context)] += 1
        self.total += 1

    def probability(self, event: BehaviorEvent) -> float:
        """Laplace-smoothed conditional probability of the event."""
        vocabulary = max(1, len(self.counts))
        count = self.counts.get((event.command, event.source, event.context), 0)
        return (count + 1) / (self.total + vocabulary)

    def is_anomalous(self, event: BehaviorEvent) -> bool:
        """Too-rare events are anomalies; an untrained profile abstains
        (returns False) rather than flooding alerts during warm-up."""
        if self.total < self.min_training:
            return False
        return self.probability(event) < self.threshold

    def score(self, event: BehaviorEvent) -> float:
        """Anomaly score in [0, 1]: 1 = never seen, 0 = dominant event."""
        return 1.0 - min(1.0, self.probability(event) / max(self.threshold, 1e-9))
