"""Policy abstractions (paper section 3).

The package contains both the paper's proposal and the IFTTT strawman it
argues against, so the experiments can compare them (bench E8 builds the
other strawman, static ACLs, as plain flow rules):

- :mod:`repro.policy.context` -- device security contexts, environment
  levels, and the joint :class:`SystemState` whose combinatorial size
  (``|S| = prod |Ci| x |Ej|``) is the section 3.2 scaling problem.
- :mod:`repro.policy.posture` -- per-device security postures: which
  µmboxes with which configuration.
- :mod:`repro.policy.fsm` -- the FSM policy abstraction: posture rules over
  system states, with brute-force enumeration for the explosion experiment.
- :mod:`repro.policy.pruning` -- independence- and equivalence-based state
  space reduction (section 3.2's closing idea).
- :mod:`repro.policy.conflicts` -- conflict/shadowing/safety analysis
  (section 3.1's critique of independent recipes).
- :mod:`repro.policy.ifttt` -- the IFTTT strawman: recipes, the Table 2
  corpus, a runtime engine, and translation into the FSM abstraction.
- :mod:`repro.policy.builder` -- a fluent DSL for writing policies.
"""

from repro.policy.builder import PolicyBuilder
from repro.policy.context import (
    ContextDomain,
    SystemState,
    Variable,
    ctx,
    env,
)
from repro.policy.fsm import PolicyFSM, PostureRule, StatePredicate
from repro.policy.posture import ALLOW_ALL, MboxSpec, Posture

__all__ = [
    "ALLOW_ALL",
    "ContextDomain",
    "MboxSpec",
    "PolicyBuilder",
    "PolicyFSM",
    "Posture",
    "PostureRule",
    "StatePredicate",
    "SystemState",
    "Variable",
    "ctx",
    "env",
]
