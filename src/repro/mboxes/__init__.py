"""µmboxes: micro network-security functions (paper section 5.2).

"Unlike traditional IT deployments with a single firewall/IDS for the
enterprise, we envision many micro-middleboxes (µmboxes), each ...
customized for a specific device type and ... rapidly instantiated and
frequently reconfigured."

- :mod:`repro.mboxes.base` -- the Click/TinyOS-like element pipeline and
  the µmbox host node that terminates tunnels.
- :mod:`repro.mboxes.elements` -- generic elements (command filter /
  whitelist, logger, telemetry tap).
- :mod:`repro.mboxes.proxy` -- the Fig. 4 password proxy.
- :mod:`repro.mboxes.ids` -- the Snort-like signature IDS.
- :mod:`repro.mboxes.firewall` -- the stateful firewall element.
- :mod:`repro.mboxes.ratelimit` -- token-bucket rate limiting.
- :mod:`repro.mboxes.dnsguard` -- open-resolver abuse protection.
- :mod:`repro.mboxes.manager` -- lifecycle: micro-VM boot/reconfigure cost
  model, pre-boot pooling, and the monolithic-middlebox baseline.
"""

from repro.mboxes.base import DROP, PASS, Alert, Element, Mbox, MboxContext, MboxHost, Verdict
from repro.mboxes.manager import MBOX_KINDS, MboxManager

__all__ = [
    "Alert",
    "DROP",
    "Element",
    "MBOX_KINDS",
    "Mbox",
    "MboxContext",
    "MboxHost",
    "MboxManager",
    "PASS",
    "Verdict",
]
