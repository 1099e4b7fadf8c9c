"""Parallel site workers: E9-class load sharded across processes.

The shared-sim :class:`Federation` nails the cross-site *semantics*; this
module is the *throughput* half.  A fleet is sharded into per-site specs
(:class:`~repro.core.deployment.SiteSpec`), each worker process deploys
and runs one site on its own simulator, and the parent aggregates.
Workers are separate processes (fork when the platform has it), so a
multi-core box overlaps the site runs.  That is the whole of the win:
control-plane work per device event is O(change), so four quarter-size
sites do the same total work as one flat site.

A site's name and horizon are run arguments; everything else -- planes,
fleet, posture rule, cached signatures -- is its spec, the one thing a
worker receives.  Fleet immunity rides in the spec: the coordinator's
current signature log (wire dicts) seeds each site's cache before the
clock starts, mirroring a first sync.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Mapping

from repro.core.deployment import SiteSpec
from repro.faults.campaign import journal_digest
from repro.faults.scenario import e9_spec, launch_e9_attacks


def shard_fleet(
    total_devices: int, sites: int, site: Callable[[int], SiteSpec] = e9_spec
) -> dict[str, SiteSpec]:
    """Split ``total_devices`` into ``sites`` near-equal sites ``site{i}``,
    each the spec ``site(devices)`` describes (an E9 home by default)."""
    if sites <= 0:
        raise ValueError(f"sites must be positive (got {sites})")
    if total_devices < 1:
        raise ValueError(f"need at least 1 device (got {total_devices})")
    base, extra = divmod(total_devices, sites)
    return {f"site{i}": site(base + (1 if i < extra else 0)) for i in range(sites)}


def run_site_worker(name: str, spec: SiteSpec, horizon: float = 120.0) -> dict[str, Any]:
    """Deploy ``spec`` and run it to ``horizon``; returns picklable stats.

    Top-level by design: multiprocessing pickles the function reference
    and its arguments, nothing else.  A site of two devices or more takes
    E9's two opening attacks (``dev0``/``dev1``, see
    :func:`~repro.faults.scenario.launch_e9_attacks`), so single-site and
    federated arms of bench E15 run the identical per-device workload.
    ``journal_sha256`` fingerprints the run: the same spec gives the same
    digest in any process.  A cold worker imports the standard library and
    ``repro`` (about 160 modules), no third-party graph library.
    """
    build_start = time.perf_counter()
    dep = spec.deploy()
    build_s = time.perf_counter() - build_start

    results = launch_e9_attacks(dep) if len(spec.devices) >= 2 else []
    run_start = time.perf_counter()
    dep.run(until=horizon)
    run_s = time.perf_counter() - run_start
    events = dep.sim.events_processed
    return {
        "site": name,
        "devices": len(spec.devices),
        "build_s": build_s,
        "run_s": run_s,
        "wall_s": build_s + run_s,
        "events": events,
        "events_per_s": events / max(run_s, 1e-9),
        "attacks_launched": len(results),
        "attacks_blocked": sum(1 for r in results if not r.succeeded),
        "compromised": sum(1 for d in dep.devices.values() if d.is_compromised()),
        "cached_signatures": len(spec.signatures),
        "journal_sha256": journal_digest(dep.sim.journal),
    }


def run_federation(
    sites: Mapping[str, SiteSpec], horizon: float = 120.0, workers: int | None = None
) -> dict[str, Any]:
    """Run every site to ``horizon``, in parallel worker processes when
    possible.

    ``workers`` <= 1 runs serially in-process (deterministic, debuggable
    and the honest baseline for the aggregate-throughput comparison on a
    single-core box).  The aggregate throughput is total simulated events
    over the *end-to-end* wall clock -- build included, for both arms of
    the comparison."""
    start = time.perf_counter()
    jobs = [(name, spec, horizon) for name, spec in sites.items()]
    if workers is None:
        workers = len(jobs)
    if workers <= 1 or len(jobs) <= 1:
        per_site = [run_site_worker(*job) for job in jobs]
        mode = "serial"
    else:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        with ctx.Pool(processes=min(workers, len(jobs))) as pool:
            per_site = pool.starmap(run_site_worker, jobs)
        mode = f"{method}:{min(workers, len(jobs))}"
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
