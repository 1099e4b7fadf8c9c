"""The password proxy µmbox element (the paper's Fig. 4 use case).

"we use a µmbox (Ubuntu VM with a customized Squid proxy) to serve as a
gateway that interposes on all traffic to the camera.  By interposing on
traffic, the µmbox can enforce the use of a new administrator-chosen
password to access the camera's management interface."

The device still only accepts its hardcoded vendor credential (the user
"has no interface to delete" it), so the proxy translates: logins carrying
the administrator-chosen password are rewritten to the vendor credential
before reaching the device; logins carrying anything else -- including the
vendor default the attacker knows -- are dropped.  The flaw remains on the
device; it is simply unreachable.
"""

from __future__ import annotations

from repro.mboxes.base import DROP, PASS, Element, MboxContext, Verdict
from repro.netsim.packet import Packet


class PasswordProxy(Element):
    """Rewrites good logins, drops bad ones, on the management port."""

    name = "password_proxy"
    blind_peers = None  # judges device-bound logins only

    def __init__(
        self,
        new_password: str,
        device_username: str = "admin",
        device_password: str = "admin",
        new_username: str | None = None,
        mgmt_port: int = 80,
    ) -> None:
        if new_password == device_password:
            raise ValueError(
                "the administrator-chosen password must differ from the "
                "vendor credential, otherwise the proxy protects nothing"
            )
        self.new_password = new_password
        self.new_username = new_username if new_username is not None else device_username
        self.device_username = device_username
        self.device_password = device_password
        self.mgmt_port = mgmt_port
        self.rewritten = 0
        self.rejected = 0

    def process(self, packet: Packet, ctx: MboxContext) -> tuple[Verdict, Packet]:
        if (
            packet.direction != "to_device"
            or packet.dport != self.mgmt_port
            or packet.payload.get("action") != "login"
        ):
            return PASS, packet
        username = packet.payload.get("username")
        password = packet.payload.get("password")
        if username == self.new_username and password == self.new_password:
            rewritten = packet.copy()
            rewritten.payload["username"] = self.device_username
            rewritten.payload["password"] = self.device_password
            self.rewritten += 1
            return PASS, rewritten
        self.rejected += 1
        ctx.alert(
            "login-rejected",
            src=packet.src,
            username=username,
            used_vendor_default=(
                username == self.device_username and password == self.device_password
            ),
        )
        return DROP, packet

    def describe(self) -> str:
        return f"password_proxy(user={self.new_username!r})"
