"""Exporters: registry -> Prometheus text exposition / traces -> JSON.

Both work off public read APIs (``registry.snapshot()``, ``tracer.spans``)
so they stay decoupled from instrument internals, and both emit plain
strings/dicts -- no I/O, callers decide where bytes go.

The text exposition follows the Prometheus conventions strictly enough to
round-trip: one ``# HELP`` and one ``# TYPE`` line per metric family
(exactly once, before the family's samples), and label values escaped per
the format spec (``\\`` -> ``\\\\``, ``"`` -> ``\\"``, newline -> ``\\n``).
:func:`parse_exposition` is the matching reader, used by the conformance
tests to prove write -> parse -> same-values.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import Tracer

#: Operator-facing help strings for the core metric families.  Families
#: not listed fall back to a generic line -- exposition stays valid either
#: way, this map just makes ``repro metrics`` self-describing.
HELP_TEXT: dict[str, str] = {
    "sim_now": "Current simulated time in seconds",
    "sim_events_processed": "Total simulator events executed",
    "sim_events_pending": "Scheduled events not yet fired",
    "mbox_alerts": "Security alerts raised by mbox elements, by kind",
    "mbox_view_deltas": "Device state/readings changes forwarded by telemetry taps",
    "mbox_tunnelled_in": "Tunnelled packets entering the security cluster",
    "mbox_returned": "Inspected packets returned to the ingress switch",
    "mbox_unbound_drops": "Packets dropped for lack of a bound mbox",
    "controller_alerts": "Alerts ingested by the controller, by kind",
    "controller_view_deltas": "View deltas applied to the controller's global view",
    "controller_packet_ins": "Table misses the switches punted to the controller",
    "pipeline_rounds": "Evaluation rounds flushed by the reactive pipeline",
    "pipeline_reaction_latency": "Trigger-to-apply latency in simulated seconds",
    "pipeline_escalations": "Context escalations decided by the pipeline",
    "journal_recorded": "Audit-journal entries recorded",
    "journal_retained": "Audit-journal entries currently retained in memory",
    "journal_evicted": "Audit-journal entries evicted from the bounded ring",
    "journal_spilled": "Evicted journal entries appended to the JSONL spill",
    "journal_spill_rotations": "Journal spill file rotations (byte cap reached)",
    "journal_spill_dropped_files": "Rotated spill files deleted past the file cap",
    "journal_spill_dropped_bytes": "Spill bytes deleted past the file cap",
    "epoch_commit_latency": "Two-phase epoch start-to-flip latency",
    "stream_buffer_depth": "Unacked records buffered, per (host, lane)",
    "stream_replay_lag": "Records sent but not yet acked, per (host, lane)",
    "stream_ack_lag_seconds": "Age of the oldest unacked record, per (host, lane)",
    "stream_peak_depth": "High-water buffered depth, per (host, lane)",
    "stream_evicted": "Bulk-lane records evicted unacked, per host stream",
    "stream_batches": "Coalesced batches shipped, per host stream",
    "dlq_depth": "Records currently quarantined in the dead-letter queue",
    "dlq_rotated": "Quarantined records rotated out of the bounded DLQ",
    "dlq_quarantined": "Records ever quarantined, per dead-letter queue",
    "slo_burn_rate": "Error-budget burn rate, per SLO and window (fast/slow)",
    "slo_breached": "1 while the SLO is in breach, else 0",
    "slo_breaches": "Breach events fired, per SLO",
    "health_state": "Subsystem health level (0=ok 1=degraded 2=critical)",
    "health_rollup": "Deployment health level (worst subsystem)",
}


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _label_str(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def _family_header(lines: list[str], name: str, kind: str) -> None:
    help_text = HELP_TEXT.get(name, f"{name.replace('_', ' ')} (repro.obs)")
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def to_prometheus(registry: "MetricsRegistry") -> str:
    """Prometheus-style text exposition of every registered series.

    Histogram buckets are cumulated and an ``+Inf`` bucket, ``_sum`` and
    ``_count`` are emitted, matching the exposition-format conventions.
    ``# HELP``/``# TYPE`` appear exactly once per family, immediately
    before that family's samples.
    """
    snap = registry.snapshot()
    lines: list[str] = []
    for name, entries in sorted(snap["counters"].items()):
        _family_header(lines, name, "counter")
        for entry in entries:
            lines.append(f"{name}{_label_str(entry['labels'])} {entry['value']:g}")
    for name, entries in sorted(snap["gauges"].items()):
        _family_header(lines, name, "gauge")
        for entry in entries:
            lines.append(f"{name}{_label_str(entry['labels'])} {entry['value']:g}")
    for name, entries in sorted(snap["histograms"].items()):
        _family_header(lines, name, "histogram")
        for entry in entries:
            cumulative = 0
            for bound, count in entry["buckets"].items():
                cumulative += count
                lines.append(
                    f"{name}_bucket{_label_str(entry['labels'], {'le': bound})} {cumulative}"
                )
            lines.append(f"{name}_sum{_label_str(entry['labels'])} {entry['sum']:g}")
            lines.append(f"{name}_count{_label_str(entry['labels'])} {entry['count']}")
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> dict[str, str]:
    """Parse ``k="v",k2="v2"`` respecting escapes inside quoted values."""
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        key = text[i:eq].strip().lstrip(",").strip()
        assert text[eq + 1] == '"', f"malformed label value at {text[eq:]!r}"
        j = eq + 2
        raw: list[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                raw.append(text[j : j + 2])
                j += 2
            else:
                raw.append(text[j])
                j += 1
        labels[key] = _unescape_label_value("".join(raw))
        i = j + 1
    return labels


def parse_exposition(text: str) -> dict[str, dict[str, Any]]:
    """Parse Prometheus text exposition back into families.

    Returns ``{family: {"type": ..., "help": ..., "samples": [(name,
    labels, value), ...]}}``.  Raises on duplicate ``# TYPE``/``# HELP``
    lines for one family -- the conformance property the exporter
    guarantees.  Built for the round-trip tests, not a general scraper.
    """
    families: dict[str, dict[str, Any]] = {}

    def family(name: str) -> dict[str, Any]:
        return families.setdefault(
            name, {"type": None, "help": None, "samples": []}
        )

    for line in text.splitlines():
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            meta, __, rest = line[2:].partition(" ")
            name, __, value = rest.partition(" ")
            entry = family(name)
            key = meta.lower()
            if entry[key] is not None:
                raise ValueError(f"duplicate # {meta} for family {name!r}")
            entry[key] = value
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rindex("}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close])
            value = float(line[close + 1 :].strip())
        else:
            sample_name, __, raw = line.partition(" ")
            labels = {}
            value = float(raw)
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix) and sample_name[: -len(suffix)] in families:
                base = sample_name[: -len(suffix)]
                break
        family(base)["samples"].append((sample_name, labels, value))
    return families


def trace_as_dicts(tracer: "Tracer", trace_id: int) -> list[dict[str, Any]]:
    """One trace's spans as plain JSON-serializable dicts, start-ordered."""
    return [span.as_dict() for span in tracer.spans(trace_id)]
