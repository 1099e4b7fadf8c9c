"""The IoTSec control platform (paper sections 2.2 and 5).

- :mod:`repro.core.view` -- the logically-centralized global view of
  device contexts, device states, and environment levels.
- :mod:`repro.core.orchestrator` -- compiles postures into µmboxes plus
  edge-switch tunnel/bypass flow rules.
- :mod:`repro.core.controller` -- the IoTSec controller: consumes alerts
  and context reports, escalates device security contexts, re-evaluates
  the policy FSM, and redeploys postures.
- :mod:`repro.core.deployment` -- the harness that assembles a complete
  secured deployment (topology, devices, environment, cluster, controller)
  from a :class:`SiteSpec`.
"""

from repro.core.controller import IoTSecController
from repro.core.deployment import DeviceSpec, SecuredDeployment, SiteSpec
from repro.core.view import GlobalView

__all__ = ["DeviceSpec", "GlobalView", "IoTSecController", "SecuredDeployment", "SiteSpec"]
