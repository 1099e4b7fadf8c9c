"""Learning security policies (paper section 4).

Two halves, mirroring the paper:

Signatures (section 4.1)
    - :mod:`repro.learning.signatures` -- the common signature format.
    - :mod:`repro.learning.repository` -- the anonymous crowdsourced
      publish/subscribe repository, keyed by device SKU, with a versioned
      log that federated sites replicate.
    - :mod:`repro.learning.anonymize` -- privacy scrubbing of reports.
    - :mod:`repro.learning.reputation` -- reputation/voting against
      poisoned or misconfigured signatures.

Cross-device interactions (section 4.2)
    - :mod:`repro.learning.abstract_env` -- the qualitative environment
      model shared by the fuzzer and the attack-graph builder.
    - :mod:`repro.learning.fuzzing` -- model-based fuzzing of the joint
      device x environment space to discover implicit couplings.
    - :mod:`repro.learning.modelextract` -- empirical model extraction from
      an instrumented (simulated) testbed.
    - :mod:`repro.learning.attackgraph` -- multi-stage attack discovery
      and greedy hardening plans.
    - :mod:`repro.learning.anomaly` -- per-device behavioural profiles
      (what the ``anomaly_gate`` µmbox consults).

Operational feeds
    - :mod:`repro.learning.traceminer` -- mine signatures from labelled
      packet captures ("publish traces or signatures").
"""

from repro.learning.repository import CrowdRepository
from repro.learning.signatures import AttackSignature, SignatureMatch

__all__ = ["AttackSignature", "CrowdRepository", "SignatureMatch"]
