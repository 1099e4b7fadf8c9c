"""Tests for the password proxy and signature IDS elements."""

import pytest

from repro.learning.signatures import (
    backdoor_signature,
    default_credential_signature,
)
from repro.mboxes.base import MboxContext, Verdict
from repro.mboxes.ids import SignatureIDS
from repro.mboxes.proxy import PasswordProxy
from repro.netsim.packet import Packet


class _RecordingContext(MboxContext):
    """Regains ``__dict__`` (MboxContext is slotted) so the fixture can
    attach the captured alerts list."""


@pytest.fixture
def ctx(sim):
    alerts = []
    context = _RecordingContext(
        sim=sim,
        mbox_name="m",
        device="cam",
        view=lambda key: None,
        emit_alert=alerts.append,
    )
    context.alerts = alerts  # type: ignore[attr-defined]
    return context


def login(username, password, src="attacker"):
    pkt = Packet(
        src=src,
        dst="cam",
        protocol="http",
        dport=80,
        payload={"action": "login", "username": username, "password": password},
    )
    pkt.direction = "to_device"
    return pkt


class TestPasswordProxy:
    def make(self):
        return PasswordProxy(
            new_password="S3cure!", device_username="admin", device_password="admin"
        )

    def test_good_login_rewritten_to_vendor_credential(self, ctx):
        proxy = self.make()
        verdict, out = proxy.process(login("admin", "S3cure!"), ctx)
        assert verdict is Verdict.PASS
        assert out.payload["password"] == "admin"  # what the device accepts
        assert proxy.rewritten == 1

    def test_vendor_default_rejected(self, ctx):
        proxy = self.make()
        verdict, __ = proxy.process(login("admin", "admin"), ctx)
        assert verdict is Verdict.DROP
        assert ctx.alerts[0].kind == "login-rejected"
        assert ctx.alerts[0].detail["used_vendor_default"] is True

    def test_wrong_password_rejected(self, ctx):
        proxy = self.make()
        assert proxy.process(login("admin", "guess"), ctx)[0] is Verdict.DROP

    def test_rewrite_does_not_mutate_original(self, ctx):
        proxy = self.make()
        original = login("admin", "S3cure!")
        __, out = proxy.process(original, ctx)
        assert original.payload["password"] == "S3cure!"
        assert out is not original

    def test_non_login_traffic_untouched(self, ctx):
        proxy = self.make()
        pkt = Packet(src="a", dst="cam", dport=8080, payload={"cmd": "on"})
        pkt.direction = "to_device"
        assert proxy.process(pkt, ctx)[0] is Verdict.PASS

    def test_from_device_untouched(self, ctx):
        proxy = self.make()
        pkt = login("admin", "admin")
        pkt.direction = "from_device"
        assert proxy.process(pkt, ctx)[0] is Verdict.PASS

    def test_same_password_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PasswordProxy(new_password="admin", device_password="admin")


class TestSignatureIDS:
    def test_match_alerts_and_drops(self, ctx):
        ids = SignatureIDS([default_credential_signature("dlink:cam:1.0")])
        verdict, __ = ids.process(login("admin", "admin"), ctx)
        assert verdict is Verdict.DROP
        assert ctx.alerts[0].kind == "signature-match"
        assert ctx.alerts[0].detail["recommended_posture"] == "password_proxy"

    def test_alert_only_mode(self, ctx):
        ids = SignatureIDS(
            [default_credential_signature("x")], drop_on_match=False
        )
        verdict, __ = ids.process(login("admin", "admin"), ctx)
        assert verdict is Verdict.PASS
        assert len(ctx.alerts) == 1

    def test_no_match_passes_silently(self, ctx):
        ids = SignatureIDS([backdoor_signature("x", 49153)])
        assert ids.process(login("admin", "admin"), ctx)[0] is Verdict.PASS
        assert ctx.alerts == []

    def test_live_rule_management(self, ctx):
        ids = SignatureIDS()
        assert ids.rule_count() == 0
        signature = default_credential_signature("x")
        ids.add_signature(signature)
        assert ids.rule_count() == 1
        ids.remove_signature(signature.sig_id)
        assert ids.rule_count() == 0

    def test_min_confidence_gates_rules(self, ctx):
        ids = SignatureIDS(min_confidence=0.8)
        weak = default_credential_signature("x")
        weak.confidence = 0.3
        ids.add_signature(weak)
        assert ids.rule_count() == 0
        strong = default_credential_signature("y")
        strong.confidence = 0.9
        ids.add_signature(strong)
        assert ids.rule_count() == 1

    def test_hit_counters(self, ctx):
        signature = default_credential_signature("x")
        ids = SignatureIDS([signature], drop_on_match=False)
        ids.process(login("admin", "admin"), ctx)
        ids.process(login("admin", "admin"), ctx)
        assert ids.hits[signature.sig_id] == 2
