"""Parallel site workers: E9-class load sharded across processes.

The shared-sim :class:`Federation` nails the cross-site *semantics*; this
module is the *throughput* half of the tentpole.  A fleet is sharded into
:class:`SiteSpec` slices, each worker process builds and runs one full
site deployment on its own simulator, and the parent aggregates.
Workers are separate processes (fork when the platform has it), so a
multi-core box overlaps the site runs.  That is the whole of the win:
control-plane work per device event is O(change), so four quarter-size
sites do the same total work as one flat site.

Fleet immunity rides into every worker: the specs carry the coordinator's
current signature log (plain wire dicts -- picklable), each site seeds
its local cache from it before the clock starts, mirroring a first sync.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.faults.scenario import e9_home, launch_e9_attacks


@dataclass(frozen=True)
class SiteSpec:
    """One worker's slice of the fleet (picklable)."""

    name: str
    devices: int
    horizon: float = 120.0
    telemetry_period: float = 20.0
    #: Coordinator signature log at launch (wire dicts), the site's
    #: cached global state -- applied before the clock starts.
    signatures: tuple = field(default_factory=tuple)


def shard_fleet(
    total_devices: int,
    sites: int,
    horizon: float = 120.0,
    signatures: Sequence[dict] = (),
    **kwargs: Any,
) -> list[SiteSpec]:
    """Split ``total_devices`` into ``sites`` near-equal site specs."""
    if sites <= 0:
        raise ValueError(f"sites must be positive (got {sites})")
    base, extra = divmod(total_devices, sites)
    specs = []
    for i in range(sites):
        n = base + (1 if i < extra else 0)
        specs.append(
            SiteSpec(
                name=f"site{i}",
                devices=n,
                horizon=horizon,
                signatures=tuple(dict(w) for w in signatures),
                **kwargs,
            )
        )
    return specs


def run_site_worker(spec: SiteSpec) -> dict[str, Any]:
    """Build and run one site end to end; returns picklable stats.

    Top-level by design: multiprocessing pickles the function reference
    and the spec, nothing else.  The site is the E9 fleet shape (the
    four-device factory cycle, everyone telemetering, first camera and
    first plug attacked) so single-site and federated arms of bench E15
    run the identical per-device workload.

    A worker that starts cold (spawned, or forked from a parent that has
    not built a site) imports this module and through it the whole site
    stack -- ``repro.core.deployment`` and its netsim/sdn/mboxes/policy/
    obs dependencies, the device library, the exploit table and the
    signature repository: the standard library plus ``repro``, about 160
    modules, and no third-party graph library.
    """
    build_start = time.perf_counter()
    dep = e9_home(spec.devices, spec.telemetry_period, spec.signatures)
    build_s = time.perf_counter() - build_start

    results = launch_e9_attacks(dep) if spec.devices >= 2 else []
    run_start = time.perf_counter()
    dep.run(until=spec.horizon)
    run_s = time.perf_counter() - run_start
    events = dep.sim.events_processed
    return {
        "site": spec.name,
        "devices": spec.devices,
        "build_s": build_s,
        "run_s": run_s,
        "wall_s": build_s + run_s,
        "events": events,
        "events_per_s": events / max(run_s, 1e-9),
        "attacks_launched": len(results),
        "attacks_blocked": sum(1 for r in results if not r.succeeded),
        "compromised": sum(1 for d in dep.devices.values() if d.is_compromised()),
        "cached_signatures": len(spec.signatures),
    }


def run_federation(
    specs: Sequence[SiteSpec], workers: int | None = None
) -> dict[str, Any]:
    """Run every site spec, in parallel worker processes when possible.

    ``workers`` <= 1 runs serially in-process (deterministic, debuggable
    and the honest baseline for the aggregate-throughput comparison on a
    single-core box).  The aggregate throughput is total simulated events
    over the *end-to-end* wall clock -- build included, for both arms of
    the comparison."""
    start = time.perf_counter()
    if workers is None:
        workers = len(specs)
    if workers <= 1 or len(specs) <= 1:
        per_site = [run_site_worker(spec) for spec in specs]
        mode = "serial"
    else:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        with ctx.Pool(processes=min(workers, len(specs))) as pool:
            per_site = pool.map(run_site_worker, list(specs))
        mode = f"{method}:{min(workers, len(specs))}"
    wall_s = time.perf_counter() - start
    events = sum(r["events"] for r in per_site)
    return {
        "mode": mode,
        "sites": len(per_site),
        "devices": sum(r["devices"] for r in per_site),
        "wall_s": wall_s,
        "events": events,
        "aggregate_events_per_s": events / max(wall_s, 1e-9),
        "attacks_blocked": sum(r["attacks_blocked"] for r in per_site),
        "attacks_launched": sum(r["attacks_launched"] for r in per_site),
        "compromised": sum(r["compromised"] for r in per_site),
        "per_site": per_site,
    }
