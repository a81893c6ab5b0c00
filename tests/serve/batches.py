"""Deterministic batch documents for the service tests.

:func:`synthetic_batch` builds a ``repro serve --script`` document from a
seed: same seed, same bytes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServiceError

#: Curated app rotations: each batch draws its jobs from one of these
#: mixes.  ``mixed-staged`` includes the staged ``powiter`` so batches
#: exercise dynamic plan extension.
SERVICE_MIXES: dict[str, tuple[str, ...]] = {
    "paper-small": ("pagerank", "linreg", "jacobi"),
    "mixed-staged": ("gnmf", "powiter", "ridge"),
    "cache-friendly": ("pagerank", "pagerank", "linreg"),
}


def synthetic_batch(
    seed: int,
    *,
    num_tenants: int = 3,
    jobs_per_tenant: int = 4,
    mix: str = "paper-small",
    weights: tuple[float, ...] | None = None,
    plan_cache_entries: int = 128,
) -> dict:
    """A deterministic batch document: same seed, same bytes.

    Tenants are named ``tenant-a`` .. and submit ``jobs_per_tenant`` jobs
    each, apps drawn (seeded) from the ``mix`` rotation with a
    seeded dataset-seed jitter so repeated apps still exercise distinct
    datasets -- except the cache-friendly mix, whose identical params make
    every repeat a plan-cache hit.
    """
    if mix not in SERVICE_MIXES:
        raise ServiceError(
            f"unknown service mix {mix!r} (registered: {sorted(SERVICE_MIXES)})"
        )
    apps = SERVICE_MIXES[mix]
    rng = np.random.default_rng(seed)
    names = [f"tenant-{chr(ord('a') + i)}" for i in range(num_tenants)]
    tenants = []
    for index, name in enumerate(names):
        weight = 1.0
        if weights is not None:
            weight = weights[index % len(weights)]
        tenants.append({"name": name, "weight": weight})
    jobs = []
    for name in names:
        for _ in range(jobs_per_tenant):
            app = apps[int(rng.integers(len(apps)))]
            params: dict = {"seed": int(rng.integers(1 << 16))}
            if mix == "cache-friendly":
                # Identical params: every repeat is a plan-cache hit.
                params = {}
            jobs.append(
                {
                    "tenant": name,
                    "app": app,
                    "params": params,
                    "priority": int(rng.integers(3)),
                }
            )
    return {
        "seed": seed,
        "plan_cache_entries": plan_cache_entries,
        "tenants": tenants,
        "jobs": jobs,
    }
