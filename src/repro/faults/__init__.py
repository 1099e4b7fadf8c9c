"""Fault injection: declarative plans and campaigns, seeded chaos, and the
canned scenarios built from them (:mod:`repro.faults.scenario`)."""

from repro.faults.chaos import ChaosGenerator
from repro.faults.plan import FAULT_KINDS, FaultEvent, FaultPlan, long_partition_plan

__all__ = [
    "FAULT_KINDS",
    "ChaosGenerator",
    "FaultEvent",
    "FaultPlan",
    "long_partition_plan",
]
