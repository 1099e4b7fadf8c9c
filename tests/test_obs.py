"""Unit tests for the observability subsystem (repro.obs)."""

import json

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    Journal,
    MetricsRegistry,
    Tracer,
    to_prometheus,
    trace_as_dicts,
)


# ----------------------------------------------------------------------
# MetricsRegistry: instruments
# ----------------------------------------------------------------------
class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("requests")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1") is reg.counter("x", a="1")

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x", a="1", b="2")
        c2 = reg.counter("x", b="2", a="1")
        assert c1 is c2

    def test_different_labels_different_series(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1") is not reg.counter("x", a="2")


class TestGauge:
    def test_settable_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7.0)
        assert g.value == 7.0

    def test_callback_gauge_samples_lazily(self):
        reg = MetricsRegistry()
        state = {"n": 0}
        g = reg.gauge("live", fn=lambda: state["n"])
        state["n"] = 42
        assert g.value == 42


class TestHistogram:
    def test_bucket_placement_and_stats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 55.5
        assert h.min == 0.5 and h.max == 50.0
        assert h.bucket_counts == [1, 1, 1]

    def test_boundary_value_lands_in_lower_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        h.observe(1.0)  # bisect_left: exactly-at-bound goes to that bucket
        assert h.bucket_counts == [1, 0, 0]

    def test_quantiles_are_bucket_resolution(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=COUNT_BUCKETS)
        for v in (1, 1, 1, 400):
            h.observe(v)
        assert h.quantile(0.5) == 1
        assert h.quantile(1.0) == 400
        assert h.quantile(0.0) == 1

    def test_empty_histogram_quantile_none(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        assert h.quantile(0.5) is None
        assert h.mean is None

    def test_unsorted_bounds_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", bounds=(2.0, 1.0))


class TestRegistry:
    def test_unique_first_caller_keeps_clean_name(self):
        reg = MetricsRegistry()
        assert reg.unique("edge") == "edge"
        assert reg.unique("edge") == "edge#2"
        assert reg.unique("edge") == "edge#3"
        assert reg.unique("core") == "core"

    def test_series_and_value(self):
        reg = MetricsRegistry()
        reg.counter("alerts", kind="a").inc(2)
        reg.counter("alerts", kind="b").inc(3)
        assert len(reg.series("alerts")) == 2
        assert reg.value("alerts", kind="a") == 2
        assert reg.value("alerts", kind="missing") is None

    def test_len_and_iter(self):
        reg = MetricsRegistry()
        reg.counter("a")
        reg.gauge("b")
        assert len(reg) == 2
        assert {i.name for i in reg} == {"a", "b"}

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c", x="1").inc()
        reg.gauge("g", fn=lambda: 3.0)
        reg.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        snap = reg.snapshot()
        round_tripped = json.loads(json.dumps(snap))
        assert round_tripped["counters"]["c"][0]["value"] == 1
        assert round_tripped["gauges"]["g"][0]["value"] == 3.0
        hist = round_tripped["histograms"]["h"][0]
        assert hist["count"] == 1
        assert hist["buckets"]["2.0"] == 1
        assert hist["buckets"]["+Inf"] == 0

    def test_disabled_registry_hands_out_noops(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("c").inc()
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(2.0)
        assert len(reg) == 0
        snap = reg.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("hits", site="a").inc(5)
        reg.gauge("depth", fn=lambda: 2.0, site="a")
        text = to_prometheus(reg)
        assert "# TYPE hits counter" in text
        assert 'hits{site="a"} 5' in text
        assert 'depth{site="a"} 2' in text

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        text = to_prometheus(reg)
        assert 'lat_bucket{le="1.0"} 1' in text
        assert 'lat_bucket{le="10.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 55.5" in text
        assert "lat_count 3" in text


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def _journaled(**ring):
    """A tracer reading its own journal, and ``at(t, kind, **fields)``,
    which journals one record at simulated time ``t``."""
    now = [0.0]
    journal = Journal(clock=lambda: now[0], **ring)
    tracer = Tracer()
    tracer.journal = journal

    def at(t: float, kind: str, **fields) -> None:
        now[0] = t
        journal.record(kind, **fields)

    return tracer, journal, at


class TestTracer:
    def test_spans_ordered_by_start(self):
        tracer, __, at = _journaled()
        t = tracer.start_trace()
        at(2.0, "alert", device="cam", trace=t, started=1.0)
        at(3.0, "alert-ingest", device="cam", trace=t, sent_at=2.0)
        at(3.0, "escalation", device="cam", trace=t, context="suspicious")
        at(3.0, "posture", device="win", trace=t, posture="block", ready_at=3.5)
        at(3.0, "flow-install", trace=t, rules=2)
        # Same-instant stages fall in the chain's stage order.
        assert [(s.stage, s.start) for s in tracer.spans(t)] == [
            ("detect", 1.0),
            ("ingest-alert", 2.0),
            ("escalate", 3.0),
            ("evaluate", 3.0),
            ("actuate", 3.0),
            ("flow-install", 3.0),
        ]

    def test_span_latency(self):
        tracer, __, at = _journaled()
        t = tracer.start_trace()
        at(1.5, "alert", device="cam", trace=t, started=1.0)
        (span,) = tracer.spans(t)
        assert span.latency == 0.5

    def test_device_index_and_last_trace(self):
        tracer, __, at = _journaled()
        t1, t2, t3 = (tracer.start_trace() for __ in range(3))
        at(1.0, "alert", device="cam", trace=t1)
        at(2.0, "alert", device="cam", trace=t2)
        at(3.0, "alert", device="plug", trace=t3)
        assert tracer.traces_for("cam") == [t1, t2]
        assert tracer.last_trace("cam") == t2
        assert tracer.last_trace("missing") is None

    def test_bounded_retention_evicts_oldest(self):
        """Retention is the journal's ring: a trace whose records it has
        evicted is gone from the view, oldest first."""
        tracer, journal, at = _journaled(segment_size=2, max_segments=2)
        ids = [tracer.start_trace() for __ in range(5)]
        for i, t in enumerate(ids):
            at(float(i), "alert", device="cam", trace=t)
        assert journal.evicted == 2
        assert tracer.trace_ids() == ids[-3:]
        assert tracer.spans(ids[0]) == []
        # the device lookup never returns evicted ids
        assert tracer.traces_for("cam") == ids[-3:]
        assert not any(tracer.evicted(t) for t in ids)

    def test_push_pop_current_stack(self):
        tracer = Tracer()
        assert tracer.current() is None
        t = tracer.start_trace()
        tracer.push(t)
        assert tracer.current() == t
        tracer.push(None)  # nested untraced scope masks the outer trace
        assert tracer.current() is None
        tracer.pop()
        assert tracer.current() == t
        tracer.pop()
        assert tracer.current() is None
        tracer.pop()  # popping an empty stack is harmless

    def test_disabled_tracer_is_inert(self):
        tracer, __, at = _journaled()
        tracer.enabled = False
        assert tracer.start_trace(device="cam") is None
        assert tracer.span(None, "s", 0.0, 1.0) is None
        at(1.0, "alert", device="cam", trace=None)
        assert tracer.started == 0
        assert tracer.traces_for("cam") == []

    def test_render_contains_stages_and_latencies(self):
        tracer, __, at = _journaled()
        t = tracer.start_trace()
        at(1.01, "alert", device="cam", trace=t, alert_kind="probe", started=1.0)
        at(1.01, "posture", device="cam", trace=t, posture="monitor", ready_at=1.04)
        text = tracer.render(t)
        assert "detect" in text and "actuate" in text
        assert "alert_kind=probe" in text
        assert "total=40.0ms" in text
        assert "evicted" not in text

    def test_trace_as_dicts_json_round_trip(self):
        tracer, __, at = _journaled()
        t = tracer.start_trace()
        at(2.0, "alert", device="cam", trace=t, started=1.0, n=3)
        data = json.loads(json.dumps(trace_as_dicts(tracer, t)))
        assert data[0]["stage"] == "detect"
        assert data[0]["latency"] == 1.0
        assert data[0]["attrs"] == {"started": 1.0, "n": 3}


# ----------------------------------------------------------------------
# Prometheus exposition conformance (PR 3 satellite)
# ----------------------------------------------------------------------
class TestPrometheusConformance:
    NASTY = 'line1\nline2 "quoted" back\\slash'

    def test_escape_unescape_round_trip(self):
        from repro.obs.exporters import _unescape_label_value, escape_label_value

        escaped = escape_label_value(self.NASTY)
        assert "\n" not in escaped  # newlines never leak into the exposition
        assert '\\"' in escaped and "\\\\" in escaped and "\\n" in escaped
        assert _unescape_label_value(escaped) == self.NASTY

    def test_nasty_label_values_survive_write_then_parse(self):
        from repro.obs import parse_exposition

        reg = MetricsRegistry()
        reg.counter("alerts", device=self.NASTY).inc(3)
        families = parse_exposition(to_prometheus(reg))
        ((__, labels, value),) = families["alerts"]["samples"]
        assert labels == {"device": self.NASTY}
        assert value == 3.0

    def test_help_and_type_exactly_once_per_family(self):
        reg = MetricsRegistry()
        # Three series of one family must share a single header pair.
        for host in ("a", "b", "c"):
            reg.counter("mbox_alerts", host=host).inc()
        reg.gauge("sim_now").set(5.0)
        text = to_prometheus(reg)
        lines = text.splitlines()
        for family in ("mbox_alerts", "sim_now"):
            assert lines.count(
                next(ln for ln in lines if ln.startswith(f"# TYPE {family} "))
            ) == 1
            assert sum(ln.startswith(f"# HELP {family} ") for ln in lines) == 1
            assert sum(ln.startswith(f"# TYPE {family} ") for ln in lines) == 1
            # Headers precede every sample of their family.
            type_at = next(
                i for i, ln in enumerate(lines) if ln.startswith(f"# TYPE {family} ")
            )
            samples_at = [
                i
                for i, ln in enumerate(lines)
                if ln.startswith(family) and not ln.startswith("#")
            ]
            assert samples_at and min(samples_at) > type_at

    def test_parser_rejects_duplicate_headers(self):
        from repro.obs import parse_exposition

        text = (
            "# HELP x one\n# TYPE x counter\nx 1\n"
            "# HELP x again\n# TYPE x counter\nx 2\n"
        )
        with pytest.raises(ValueError, match="duplicate"):
            parse_exposition(text)

    def test_histogram_family_round_trips(self):
        from repro.obs import parse_exposition

        reg = MetricsRegistry()
        h = reg.histogram("lat", bounds=(0.1, 1.0), site="edge")
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        families = parse_exposition(to_prometheus(reg))
        fam = families["lat"]
        assert fam["type"] == "histogram"
        by_name = {}
        for name, labels, value in fam["samples"]:
            by_name.setdefault(name, []).append((labels, value))
        # Cumulative buckets, then sum and count, all under the base family.
        bucket_values = {lbl["le"]: v for lbl, v in by_name["lat_bucket"]}
        assert bucket_values["0.1"] == 1.0
        assert bucket_values["1.0"] == 2.0
        assert bucket_values["+Inf"] == 3.0
        assert by_name["lat_sum"][0][1] == pytest.approx(2.55)
        assert by_name["lat_count"][0][1] == 3.0
        assert by_name["lat_sum"][0][0] == {"site": "edge"}


# ----------------------------------------------------------------------
# unique() label dedup across multi-site fleets (PR 3 satellite)
# ----------------------------------------------------------------------
class TestUniqueLabelDedup:
    def test_later_callers_get_numbered_names(self):
        reg = MetricsRegistry()
        assert reg.unique("edge") == "edge"
        assert reg.unique("edge") == "edge#2"
        assert reg.unique("edge") == "edge#3"
        assert reg.unique("core") == "core"  # independent per prefix

    def test_two_sites_sharing_one_simulator_never_alias(self):
        """Two deployments on one simulator: same component names, distinct
        series -- incrementing one site's counters must not move the other's."""
        from repro.core.deployment import SecuredDeployment
        from repro.netsim.simulator import Simulator

        sim = Simulator()
        site_a = SecuredDeployment.build(sim=sim)
        site_b = SecuredDeployment.build(sim=sim)
        site_a.finalize()
        site_b.finalize()

        a, b = site_a.controller, site_b.controller
        assert a.metric_labels != b.metric_labels
        assert a.metric_labels["controller"] == "controller"
        assert b.metric_labels["controller"] == "controller#2"
        pipelines = {
            tuple(p.metric_labels.items())
            for p in (a.pipeline, b.pipeline)
        }
        assert len(pipelines) == 2

        a.packet_ins += 10
        assert sim.metrics.value("controller_packet_ins", **a.metric_labels) == 10
        assert sim.metrics.value("controller_packet_ins", **b.metric_labels) == 0

    def test_each_component_kind_counts_its_own_names(self):
        """Components of different kinds may share a name (the controller,
        its updater, its stream consumer and its dead-letter queue are all
        ``controller``); each keeps the clean label value under its own key."""
        from repro.core.deployment import SecuredDeployment
        from repro.devices.library import smart_camera

        dep = SecuredDeployment.build(durable_telemetry=True, consistent_updates=True)
        dep.add_device(smart_camera, "cam")
        dep.finalize()
        values: dict[str, set[str]] = {}
        for instrument in dep.sim.metrics:
            for key, value in instrument.labels.items():
                values.setdefault(key, set()).add(value)
        assert {key: values[key] for key in ("controller", "consumer", "dlq", "stream")} == {
            "controller": {"controller"},
            "consumer": {"controller"},
            "dlq": {"controller"},
            "stream": {"cluster"},
        }


# ----------------------------------------------------------------------
# observe=False hands out shared no-op instruments (PR 3 satellite)
# ----------------------------------------------------------------------
class TestDisabledRegistryIdentity:
    def test_noop_instruments_are_singletons(self):
        """Every disabled counter/gauge/histogram is the *same* object --
        instrument identity proves the no-op path allocates nothing per call."""
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a", x="1") is reg.counter("b", y="2")
        assert reg.gauge("a") is reg.gauge("b", z="3")
        assert reg.histogram("a") is reg.histogram("b", bounds=(1.0,))
        # ...and nothing was registered: the store stays empty.
        assert len(reg) == 0
        assert list(reg) == []
        reg.counter("a").inc(5)
        reg.gauge("a").set(5)
        reg.histogram("a").observe(5)
        assert reg.value("a") is None

    def test_gauge_callbacks_never_evaluated_when_disabled(self):
        """observe=False must not merely hide gauges -- the registered
        callback must never run (a lambda over live state could be
        arbitrarily expensive)."""
        reg = MetricsRegistry(enabled=False)
        calls = []
        reg.gauge("hot", fn=lambda: calls.append(1) or 0.0)
        assert reg.snapshot()["gauges"] == {}
        assert calls == []

    def test_null_instrument_methods_are_bytecode_noops(self):
        """The null path is *truly* zero-cost: each no-op method body is
        a bare return (no attribute writes, no calls) -- the bytecode-level
        equivalent of ``pass``."""
        import dis

        from repro.obs.registry import _NullCounter, _NullGauge, _NullHistogram

        def _pass(self, value=0):
            pass

        expected = [op.opname for op in dis.get_instructions(_pass)]
        for method in (_NullCounter.inc, _NullGauge.set, _NullHistogram.observe):
            ops = [op.opname for op in dis.get_instructions(method)]
            assert ops == expected, f"{method.__qualname__} is not a bare no-op"
