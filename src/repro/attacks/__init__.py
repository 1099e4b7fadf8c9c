"""Attacker models.

Every experiment needs a red team.  This package provides:

- :mod:`repro.attacks.attacker` -- an attacker host with request/response
  correlation (it can log in, keep sessions, and chain actions).
- :mod:`repro.attacks.exploits` -- one exploit primitive per Table 1 flaw
  class (default credentials, exposed access, embedded keys, no-credential
  control, open DNS resolver reflection, vendor backdoor) plus brute force.

Multi-stage campaigns (including the paper's Fig. 3 and section 2.1
break-ins) are declarative data: :mod:`repro.faults.campaign`.
"""

from repro.attacks.attacker import Attacker
from repro.attacks.exploits import EXPLOITS, Exploit, ExploitResult

__all__ = ["Attacker", "EXPLOITS", "Exploit", "ExploitResult"]
