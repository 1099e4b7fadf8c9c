"""Tests for µmbox pipeline elements (exercised directly)."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mboxes.base import Alert, Mbox, MboxContext, Verdict
from repro.mboxes.dnsguard import DnsGuard
from repro.mboxes.elements import (
    CommandFilter,
    CommandWhitelist,
    ContextGate,
    LoginMonitor,
    PacketLogger,
    SourceFilter,
    TelemetryTap,
)
from repro.mboxes.firewall import ConnectionTracker, StatefulFirewall
from repro.mboxes.manager import MBOX_KINDS
from repro.mboxes.ratelimit import RateLimiter
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator
from tests.test_blind_flows import DEVICE, PEERS, context, directed, element_of, packets


class _RecordingContext(MboxContext):
    """Regains ``__dict__`` (MboxContext is slotted) so the fixture can
    attach the captured alerts and view deltas."""


@pytest.fixture
def ctx(sim):
    alerts, deltas = [], []
    context = _RecordingContext(
        sim=sim,
        mbox_name="mbox-test",
        device="dev",
        view=lambda key: {"env:occupancy": "present"}.get(key),
        emit_alert=alerts.append,
        emit_delta=lambda *delta: deltas.append(delta),
    )
    context.alerts = alerts  # type: ignore[attr-defined]
    context.deltas = deltas  # type: ignore[attr-defined]
    return context


def to_device(payload=None, dport=8080, src="attacker", **kw):
    pkt = Packet(src=src, dst="dev", dport=dport, payload=payload or {}, **kw)
    pkt.direction = "to_device"
    return pkt


def from_device(payload=None, dport=0, dst="cloud", **kw):
    pkt = Packet(src="dev", dst=dst, dport=dport, payload=payload or {}, **kw)
    pkt.direction = "from_device"
    return pkt


class TestCommandFilter:
    def test_denied_command_dropped_with_alert(self, ctx):
        element = CommandFilter(deny=["open"])
        verdict, __ = element.process(to_device({"cmd": "open"}), ctx)
        assert verdict is Verdict.DROP
        assert ctx.alerts[0].kind == "command-blocked"

    def test_other_commands_pass(self, ctx):
        element = CommandFilter(deny=["open"])
        verdict, __ = element.process(to_device({"cmd": "close"}), ctx)
        assert verdict is Verdict.PASS

    def test_from_device_direction_ignored(self, ctx):
        element = CommandFilter(deny=["open"])
        verdict, __ = element.process(from_device({"cmd": "open"}), ctx)
        assert verdict is Verdict.PASS


class TestCommandWhitelist:
    def test_unlisted_command_dropped(self, ctx):
        element = CommandWhitelist(allow=["status"])
        verdict, __ = element.process(to_device({"cmd": "go"}), ctx)
        assert verdict is Verdict.DROP

    def test_listed_command_passes(self, ctx):
        element = CommandWhitelist(allow=["go"])
        assert element.process(to_device({"cmd": "go"}), ctx)[0] is Verdict.PASS

    def test_trusted_source_bypasses(self, ctx):
        element = CommandWhitelist(allow=[], allowed_sources=["city-ops"])
        pkt = to_device({"cmd": "go"}, src="city-ops")
        assert element.process(pkt, ctx)[0] is Verdict.PASS

    def test_non_command_traffic_passes(self, ctx):
        element = CommandWhitelist(allow=[])
        assert element.process(to_device({"action": "get"}), ctx)[0] is Verdict.PASS


class TestContextGate:
    def test_guarded_command_needs_condition(self, sim):
        alerts = []
        absent_ctx = MboxContext(
            sim=sim,
            mbox_name="m",
            device="dev",
            view=lambda key: "absent" if key == "env:occupancy" else None,
            emit_alert=alerts.append,
        )
        gate = ContextGate(commands=["on"], require={"env:occupancy": "present"})
        verdict, __ = gate.process(to_device({"cmd": "on"}), absent_ctx)
        assert verdict is Verdict.DROP
        assert alerts[0].kind == "context-gate-blocked"

    def test_passes_when_condition_holds(self, ctx):
        gate = ContextGate(commands=["on"], require={"env:occupancy": "present"})
        assert gate.process(to_device({"cmd": "on"}), ctx)[0] is Verdict.PASS

    def test_unknown_context_fails_closed(self, sim):
        blind_ctx = MboxContext(
            sim=sim, mbox_name="m", device="dev",
            view=lambda key: None, emit_alert=lambda a: None,
        )
        gate = ContextGate(commands=["on"], require={"env:occupancy": "present"})
        assert gate.process(to_device({"cmd": "on"}), blind_ctx)[0] is Verdict.DROP

    def test_unguarded_commands_flow(self, sim):
        blind_ctx = MboxContext(
            sim=sim, mbox_name="m", device="dev",
            view=lambda key: None, emit_alert=lambda a: None,
        )
        gate = ContextGate(commands=["on"], require={"env:occupancy": "present"})
        assert gate.process(to_device({"cmd": "off"}), blind_ctx)[0] is Verdict.PASS


class TestSourceFilter:
    def test_unapproved_source_dropped(self, ctx):
        element = SourceFilter(allowed_sources=["hub"])
        assert element.process(to_device({"cmd": "x"}), ctx)[0] is Verdict.DROP

    def test_approved_source_passes(self, ctx):
        element = SourceFilter(allowed_sources=["hub"])
        assert element.process(to_device(src="hub"), ctx)[0] is Verdict.PASS


class TestLoginMonitor:
    def test_alerts_on_login(self, ctx):
        element = LoginMonitor()
        pkt = to_device({"action": "login", "username": "admin"}, dport=80)
        verdict, __ = element.process(pkt, ctx)
        assert verdict is Verdict.PASS  # monitor never blocks
        assert ctx.alerts[0].kind == "login-attempt"
        assert element.attempts == 1

    def test_ignores_non_login(self, ctx):
        element = LoginMonitor()
        element.process(to_device({"action": "get"}, dport=80), ctx)
        assert element.attempts == 0


class TestStatefulFirewall:
    def test_inbound_default_deny(self, ctx):
        fw = StatefulFirewall()
        assert fw.process(to_device({"cmd": "on"}), ctx)[0] is Verdict.DROP
        assert fw.blocked == 1

    def test_trusted_source_allowed(self, ctx):
        fw = StatefulFirewall(trusted_sources=["hub"])
        assert fw.process(to_device(src="hub"), ctx)[0] is Verdict.PASS

    def test_open_port_allowed(self, ctx):
        fw = StatefulFirewall(open_ports=[80])
        assert fw.process(to_device(dport=80), ctx)[0] is Verdict.PASS

    def test_reply_to_outbound_allowed(self, ctx):
        fw = StatefulFirewall()
        outbound = from_device({"q": 1}, dst="cloud")
        outbound.sport, outbound.dport = 5000, 443
        fw.process(outbound, ctx)
        reply = Packet(src="cloud", dst="dev", sport=443, dport=5000)
        reply.direction = "to_device"
        assert fw.process(reply, ctx)[0] is Verdict.PASS

    def test_backdoor_port_blocked(self, ctx):
        fw = StatefulFirewall(trusted_sources=["hub"], open_ports=[80])
        backdoor = to_device({"cmd": "on"}, dport=49153)
        assert fw.process(backdoor, ctx)[0] is Verdict.DROP

    def test_default_validation(self):
        with pytest.raises(ValueError):
            StatefulFirewall(default="maybe")


def flow(src, dst, sport=0, dport=80):
    return Packet(src=src, dst=dst, protocol="http", sport=sport, dport=dport)


class TestConnectionTracker:
    def test_reply_allowed_after_outbound(self):
        tracker = ConnectionTracker()
        tracker.note_outbound(flow("cam", "cloud", sport=5000, dport=443))
        assert tracker.is_reply(flow("cloud", "cam", sport=443, dport=5000))

    def test_unrelated_inbound_not_reply(self):
        tracker = ConnectionTracker()
        tracker.note_outbound(flow("cam", "cloud", sport=5000, dport=443))
        assert not tracker.is_reply(flow("attacker", "cam", sport=443, dport=5000))
        assert not tracker.is_reply(flow("cloud", "cam", sport=443, dport=9999))

    def test_len(self):
        tracker = ConnectionTracker()
        tracker.note_outbound(flow("cam", "a"))
        tracker.note_outbound(flow("cam", "a"))  # same flow
        tracker.note_outbound(flow("cam", "b"))
        assert len(tracker) == 2


class TestRateLimiter:
    def test_burst_allowed_then_limited(self, ctx):
        limiter = RateLimiter(rate=1.0, burst=3.0)
        verdicts = [
            limiter.process(to_device({"cmd": "x"}), ctx)[0] for __ in range(5)
        ]
        assert verdicts[:3] == [Verdict.PASS] * 3
        assert verdicts[3:] == [Verdict.DROP] * 2
        assert limiter.limited == 2

    def test_tokens_replenish_over_time(self, ctx, sim):
        limiter = RateLimiter(rate=1.0, burst=1.0)
        assert limiter.process(to_device(), ctx)[0] is Verdict.PASS
        assert limiter.process(to_device(), ctx)[0] is Verdict.DROP
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert limiter.process(to_device(), ctx)[0] is Verdict.PASS

    def test_per_source_buckets(self, ctx):
        limiter = RateLimiter(rate=1.0, burst=1.0)
        assert limiter.process(to_device(src="a"), ctx)[0] is Verdict.PASS
        assert limiter.process(to_device(src="b"), ctx)[0] is Verdict.PASS
        assert limiter.process(to_device(src="a"), ctx)[0] is Verdict.DROP

    def test_dport_scoping(self, ctx):
        limiter = RateLimiter(rate=1.0, burst=1.0, match_dport=80)
        for __ in range(5):
            assert limiter.process(to_device(dport=8080), ctx)[0] is Verdict.PASS

    def test_exempt_sources(self, ctx):
        limiter = RateLimiter(rate=1.0, burst=1.0, exempt_sources=("hub",))
        for __ in range(5):
            assert limiter.process(to_device(src="hub"), ctx)[0] is Verdict.PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0)
        with pytest.raises(ValueError):
            RateLimiter(burst=-1)


class TestDnsGuard:
    def test_external_query_dropped(self, ctx):
        guard = DnsGuard(local_sources=["hub"])
        query = to_device({"query": "x.com"}, dport=53, src="victim")
        assert guard.process(query, ctx)[0] is Verdict.DROP
        assert guard.blocked == 1

    def test_local_query_allowed(self, ctx):
        guard = DnsGuard(local_sources=["hub"])
        query = to_device({"query": "x.com"}, dport=53, src="hub")
        assert guard.process(query, ctx)[0] is Verdict.PASS

    def test_local_query_rate_capped(self, ctx):
        guard = DnsGuard(local_sources=["hub"], max_queries_per_second=2.0)
        query = lambda: to_device({"query": "x"}, dport=53, src="hub")
        assert guard.process(query(), ctx)[0] is Verdict.PASS
        assert guard.process(query(), ctx)[0] is Verdict.PASS
        assert guard.process(query(), ctx)[0] is Verdict.DROP

    def test_non_dns_ignored(self, ctx):
        guard = DnsGuard()
        assert guard.process(to_device(dport=80, src="anyone"), ctx)[0] is Verdict.PASS

    def test_validation(self):
        with pytest.raises(ValueError):
            DnsGuard(max_queries_per_second=0)


class TestLoggerAndTap:
    def test_packet_logger_records(self, ctx):
        logger = PacketLogger()
        logger.process(to_device({"cmd": "on"}), ctx)
        logger.process(from_device(), ctx)
        assert logger.logged == 2
        assert logger.captured == []  # counting keeps nothing per packet

    def test_packet_logger_counts_exactly(self, ctx):
        logger = PacketLogger()
        for i in range(100):
            logger.process(to_device({"cmd": str(i)}), ctx)
            assert logger.logged == i + 1
        assert logger.captured == []

    def test_telemetry_tap_reports_to_controller(self, ctx):
        tap = TelemetryTap()
        report = from_device(
            {"action": "telemetry", "state": "on", "readings": {"person": "present"}}
        )
        verdict, __ = tap.process(report, ctx)
        assert verdict is Verdict.PASS
        assert ctx.deltas == [("dev", "on", {"person": "present"})]
        assert ctx.alerts == []  # a view delta, not an alert

    def test_tap_ignores_non_telemetry(self, ctx):
        tap = TelemetryTap()
        tap.process(from_device({"action": "other"}), ctx)
        assert ctx.alerts == [] and ctx.deltas == []


class TestMboxPipeline:
    def test_chain_stops_at_first_drop(self, ctx):
        fw = StatefulFirewall(trusted_sources=["hub"])
        logger = PacketLogger()
        mbox = Mbox("m", "dev", [fw, logger])
        verdict, __ = mbox.process(to_device(src="attacker"), ctx)
        assert verdict is Verdict.DROP
        assert logger.logged == 0  # never reached
        assert mbox.dropped == 1

    def test_chain_passes_through_all(self, ctx):
        logger = PacketLogger()
        mbox = Mbox("m", "dev", [LoginMonitor(), logger])
        verdict, __ = mbox.process(to_device(src="hub"), ctx)
        assert verdict is Verdict.PASS
        assert logger.logged == 1

    def test_reconfigure_swaps_elements(self, ctx):
        mbox = Mbox("m", "dev", [CommandFilter(deny=["open"])])
        assert mbox.process(to_device({"cmd": "open"}), ctx)[0] is Verdict.DROP
        mbox.reconfigure([])
        assert mbox.process(to_device({"cmd": "open"}), ctx)[0] is Verdict.PASS

    def test_describe(self, ctx):
        mbox = Mbox("m", "dev", [CommandFilter(deny=["open"])], kind="block")
        assert "command_filter" in mbox.describe()


class TestPacketCapture:
    def test_capture_disabled_by_default(self, ctx):
        from repro.mboxes.elements import PacketLogger

        logger = PacketLogger()
        logger.process(to_device({"cmd": "on"}), ctx)
        assert logger.captured == []

    def test_capture_retains_copies(self, ctx):
        from repro.mboxes.elements import PacketLogger

        logger = PacketLogger(capture=True)
        original = to_device({"cmd": "on"})
        logger.process(original, ctx)
        assert len(logger.captured) == 1
        captured = logger.captured[0]
        assert captured.payload == {"cmd": "on"}
        assert captured.pkt_id != original.pkt_id  # a copy, not a reference

    def test_capture_limit(self, ctx):
        from repro.mboxes.elements import PacketLogger

        logger = PacketLogger(capture=True, capture_limit=3)
        for i in range(10):
            logger.process(to_device({"cmd": str(i)}), ctx)
        assert len(logger.captured) == 3
        assert logger.logged == 10  # the count is unbounded by the limit

    def test_captured_from_filter(self, ctx):
        from repro.mboxes.elements import PacketLogger

        logger = PacketLogger(capture=True)
        logger.process(to_device({"cmd": "a"}, src="attacker"), ctx)
        logger.process(to_device({"cmd": "b"}, src="hub"), ctx)
        assert len(logger.captured_from("attacker")) == 1


# ----------------------------------------------------------------------
# The input is the sender's own packet
# ----------------------------------------------------------------------
#: What ``process`` may not change on its input: every header field, and
#: the payload (compared deep, readings included).
HEADER = ("src", "dst", "protocol", "sport", "dport", "size", "created_at", "pkt_id",
          "direction", "inspected_by")


#: What random payloads seldom build but some element acts on: the proxy's
#: own login (the one rewrite in the registry), a DNS query, a command.
CRAFTED = (
    ("http", 80, {"action": "login", "username": "admin", "password": "S3cure!gateway"}),
    ("http", 80, {"action": "login", "username": "admin", "password": "admin"}),
    ("dns", 53, {"action": "query", "name": "example.com"}),
    ("iot", 8080, {"cmd": "on"}),
)


def crafted(src, dst, direction):
    return st.builds(
        lambda peer, which: directed(
            Packet(
                peer if src is None else src,
                peer if dst is None else dst,
                CRAFTED[which][0],
                dport=CRAFTED[which][1],
                payload=copy.deepcopy(CRAFTED[which][2]),
            ),
            direction,
        ),
        st.sampled_from(PEERS),
        st.integers(0, len(CRAFTED) - 1),
    )


def _snapshot(packet):
    return (
        [getattr(packet, field) for field in HEADER],
        copy.deepcopy(packet.payload),
    )


@pytest.mark.parametrize("direction", ["to_device", "from_device"])
@pytest.mark.parametrize("kind", MBOX_KINDS)
def test_process_never_mutates_its_input(kind, direction):
    """The host hands a chain the sender's packet itself (no inspection
    copy), so an element that rewrites returns a copy: across any traffic,
    in either direction, the input's payload and header stay as sent."""
    sim, alerts = Simulator(), []
    ctx = context(sim, alerts)
    inbound = packets(st.sampled_from(PEERS), st.just(DEVICE), "to_device") | crafted(
        None, DEVICE, "to_device"
    )
    outbound = packets(st.just(DEVICE), st.sampled_from(PEERS), "from_device") | crafted(
        DEVICE, None, "from_device"
    )

    @settings(max_examples=30, deadline=None)
    @given(
        warmup=st.lists(inbound | outbound, max_size=4),
        packet=inbound if direction == "to_device" else outbound,
    )
    def check(warmup, packet):
        element = element_of(kind)
        for earlier in warmup:  # so there is state to read
            element.process(earlier, ctx)
        before = _snapshot(packet)
        element.process(packet, ctx)
        assert _snapshot(packet) == before

    check()
