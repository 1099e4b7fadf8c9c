"""Security postures.

Section 3.2: "For each state Sk, we define the security posture for each
device Posture(Sk, Di).  This security posture specifies the set of security
modules through which the traffic for the device needs to be subjected
(e.g., 'proxy'-ing capabilities) as well as the set of anomaly detection and
signature detection rules that need to be applied."

A :class:`Posture` is therefore a named, ordered set of :class:`MboxSpec`
(µmbox kind + configuration).  The orchestrator materializes specs into
running µmboxes; equality of postures is what the pruning pass exploits to
collapse states.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any


def _freeze(value: Any) -> Any:
    """Recursively convert dict/list config into hashable tuples."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set)):
        items = [_freeze(v) for v in value]
        if isinstance(value, set):
            items.sort(key=repr)
        return tuple(items)
    return value


def _thaw(value: Any) -> Any:
    """Invert :func:`_freeze`: pair tuples keyed by strings become dicts,
    other tuples lists.  Module-level, not nested in ``config_dict``: a
    nested recursive function reaches itself through its closure cell, a
    cycle only the collector frees, left behind by every call."""
    if isinstance(value, tuple):
        if all(isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str) for e in value):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class MboxSpec:
    """One security module in a posture: a µmbox kind plus configuration.

    ``kind`` names a registered µmbox class (see
    :data:`repro.mboxes.manager.MBOX_KINDS`): ``"password_proxy"``,
    ``"signature_ids"``, ``"stateful_firewall"``, ``"rate_limiter"``,
    ``"dns_guard"``, ``"command_whitelist"`` ...

    Config is frozen at construction so specs are hashable and comparable
    -- posture identity must be structural for state collapsing to work.
    """

    kind: str
    config: tuple = field(default_factory=tuple)

    @classmethod
    def make(cls, kind: str, **config: Any) -> "MboxSpec":
        return cls(kind, _freeze(config))

    def config_dict(self) -> dict[str, Any]:
        """Thaw the frozen config back into plain dicts/lists."""
        result = _thaw(self.config)
        if result == []:  # empty config freezes to ()
            return {}
        return result

    def __str__(self) -> str:
        return f"{self.kind}({json.dumps(self.config_dict(), sort_keys=True, default=str)})"


#: µmbox kinds that only observe traffic -- a posture made purely of these
#: degrades *open* when its instance dies (losing visibility is acceptable;
#: losing connectivity is not).  Anything that enforces degrades *closed*.
MONITOR_ONLY_KINDS = frozenset({"telemetry_tap", "packet_logger", "login_monitor"})


@dataclass(frozen=True)
class Posture:
    """A named chain of security modules applied to one device's traffic.

    ``fail_mode`` is the degradation policy when the posture's µmbox
    instance crashes: ``"closed"`` (traffic blocks while the instance is
    down -- the default for anything that enforces) or ``"open"`` (traffic
    flows uninspected -- acceptable only for pure monitoring).  The empty
    string means "derive from the module kinds".
    """

    name: str
    modules: tuple[MboxSpec, ...] = ()
    description: str = ""
    fail_mode: str = ""

    @classmethod
    def make(
        cls,
        name: str,
        *modules: MboxSpec,
        description: str = "",
        fail_mode: str = "",
    ) -> "Posture":
        if fail_mode not in ("", "open", "closed"):
            raise ValueError(f"fail_mode must be '', 'open' or 'closed' (got {fail_mode!r})")
        return cls(
            name=name,
            modules=tuple(modules),
            description=description,
            fail_mode=fail_mode,
        )

    def failure_mode(self) -> str:
        """The resolved degradation policy: explicit, else derived.

        Monitoring-only postures fail open; any posture with at least one
        enforcing module fails closed -- an unprotected vulnerable device
        is the thing this whole system exists to prevent.
        """
        if self.fail_mode:
            return self.fail_mode
        if self.modules and all(m.kind in MONITOR_ONLY_KINDS for m in self.modules):
            return "open"
        return "closed"

    @property
    def is_permissive(self) -> bool:
        """True when no module interposes (traffic flows untouched)."""
        return not self.modules

    def module_kinds(self) -> tuple[str, ...]:
        return tuple(spec.kind for spec in self.modules)

    def summary(self) -> str:
        """Compact one-line form for journal fields: name + module kinds."""
        if self.is_permissive:
            return f"{self.name}(allow)"
        return f"{self.name}({'+'.join(self.module_kinds())})"

    def __str__(self) -> str:
        if self.is_permissive:
            return f"Posture({self.name}: allow)"
        chain = " -> ".join(str(m) for m in self.modules)
        return f"Posture({self.name}: {chain})"


#: The default posture: traffic flows with no interposition.
ALLOW_ALL = Posture(name="allow")


def quarantine(device: str) -> Posture:
    """A maximally restrictive posture: drop everything to/from the device."""
    return Posture.make(
        "quarantine",
        MboxSpec.make("stateful_firewall", default="drop"),
        description=f"isolate {device} entirely",
    )


def block_commands(*commands: str, name: str = "block-commands") -> Posture:
    """Drop specific control commands while letting the rest flow.

    Fig. 3's "Block 'open' + FW" posture is ``block_commands("open")``.
    """
    return Posture.make(
        name,
        MboxSpec.make("command_filter", deny=sorted(commands)),
        description=f"drop commands: {', '.join(sorted(commands))}",
    )


def require_proxy(new_password: str, name: str = "password-proxy") -> Posture:
    """Interpose the Fig. 4 password proxy with an admin-chosen secret."""
    return Posture.make(
        name,
        MboxSpec.make("password_proxy", new_password=new_password),
        description="enforce administrator-chosen password at the gateway",
    )
