"""repro.obs: always-on, near-zero-overhead observability.

Two records, a view over one of them, and their glue:

- :class:`MetricsRegistry` (:mod:`repro.obs.registry`) -- counters, gauges
  and fixed-bucket histograms keyed by ``(name, labels)``.  Simulated-time
  aware: nothing in here reads the wall clock, and the hot-path cost of an
  instrument is one attribute increment.  Callback gauges cost *nothing*
  until a snapshot is taken -- they read counters a component already
  keeps.
- :class:`Journal` (:mod:`repro.obs.journal`) -- the flight recorder: an
  append-only, bounded, structured security audit journal every layer
  writes through ``sim.journal.record(kind, **fields)``.  Where metrics
  aggregate, the journal *remembers*: packet verdicts, alerts,
  escalations, posture/FSM transitions, flow installs, epoch commits,
  device lifecycle and attack steps, in order, in simulated time.
- :class:`Tracer` (:mod:`repro.obs.trace`) -- causal traces read from the
  journal.  An alert gets a trace id where it is born (the µmbox) and the
  id rides the control channel, the escalation engine, the reactive
  pipeline's dirty set, and the orchestrator's actuation batch; every
  stage's journal entry carries it, so the entries sharing an id are the
  packet -> alert -> escalation -> posture -> flow-rule chain with
  per-stage *simulated* latencies.  :func:`reconstruct`
  (:mod:`repro.obs.incident`) builds a per-device incident timeline from
  the journal, its chains and the metrics.

The durable telemetry plane (:mod:`repro.obs.stream`) sits between the
µmbox hosts and the controller: per-host store-and-forward buffers with
offset-tracked, acknowledged, in-order replay across partitions, plus a
dead-letter queue that quarantines malformed or untrusted records as
inspectable evidence.

The SLO & health plane (:mod:`repro.obs.slo` / :mod:`repro.obs.health`)
interprets all of the above online: declared security objectives
evaluated over sliding windows with fast/slow burn-rate thresholds
(journaled ``slo-breach``/``slo-recover`` chains carrying trace ids),
rolled up into per-subsystem ``ok -> degraded -> critical`` health
states and a deployment-level verdict.

Exporters (:mod:`repro.obs.exporters`) turn a registry into a plain JSON
snapshot or Prometheus-style text exposition (escaped labels, one
``# HELP``/``# TYPE`` per family; :func:`parse_exposition` round-trips).

Every :class:`~repro.netsim.simulator.Simulator` owns one registry, one
tracer and one journal (``sim.metrics`` / ``sim.tracer`` /
``sim.journal``); components register into them at construction.
``Simulator(observe=False)`` swaps in no-op instruments so the overhead
bench can measure the cost of instrumentation itself.
"""

from repro.obs.exporters import parse_exposition, to_prometheus, trace_as_dicts
from repro.obs.health import (
    HEALTH_CRITICAL,
    HEALTH_DEGRADED,
    HEALTH_OK,
    HealthPlane,
    Probe,
    attach_health_plane,
)
from repro.obs.incident import Incident, IncidentChain, reconstruct
from repro.obs.journal import Journal, JournalEntry
from repro.obs.registry import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.slo import SLO, Reading, SloTracker
from repro.obs.stream import (
    DeadLetterQueue,
    HostStream,
    StreamConfig,
    StreamConsumer,
    StreamRecord,
    validate_record,
)
from repro.obs.trace import Span, Tracer

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "DeadLetterQueue",
    "Gauge",
    "HEALTH_CRITICAL",
    "HEALTH_DEGRADED",
    "HEALTH_OK",
    "HealthPlane",
    "Histogram",
    "HostStream",
    "Incident",
    "IncidentChain",
    "Journal",
    "JournalEntry",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "Probe",
    "Reading",
    "SLO",
    "SloTracker",
    "Span",
    "StreamConfig",
    "StreamConsumer",
    "StreamRecord",
    "Tracer",
    "attach_health_plane",
    "parse_exposition",
    "reconstruct",
    "to_prometheus",
    "trace_as_dicts",
    "validate_record",
]
