"""Batch scripts: declarative multi-tenant job batches.

A batch is a JSON document (``repro serve --script batch.json``)::

    {
      "seed": 7,
      "cluster": {"num_workers": 4},
      "policy": {"max_queued_jobs": 64},
      "plan_cache_entries": 128,
      "tenants": [
        {"name": "ana", "weight": 2.0, "memory_quota_bytes": 100000000},
        {"name": "bo"}
      ],
      "jobs": [
        {"tenant": "ana", "app": "pagerank", "params": {"scale": 0.002}},
        {"tenant": "bo", "app": "gnmf", "priority": 1}
      ]
    }

:func:`synthetic_batch` generates such documents deterministically from a
seed (the CI smoke job and the throughput benchmark both use it), and
:func:`run_batch` executes one end to end: submit everything, drain the
queue under stride scheduling, return the service and its report.
"""

from __future__ import annotations

import numpy as np

from repro.config import ClusterConfig
from repro.errors import ServiceError
from repro.programs.registry import SERVICE_MIXES
from repro.serve.admission import AdmissionPolicy
from repro.serve.job import JobSpec, TenantSpec
from repro.serve.service import MatrixService, ServiceConfig

_CLUSTER_KEYS = frozenset(
    {
        "num_workers",
        "threads_per_worker",
        "block_size",
        "inplace",
        "memory_limit_bytes",
        "max_concurrent_stages",
        "cache_limit_bytes",
        "elastic",
        "elastic_seed",
    }
)


def _build(cls, data: dict, what: str):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ServiceError(f"bad {what} in batch script: {exc}") from None


def parse_batch(data: dict) -> tuple[ServiceConfig, list[JobSpec]]:
    """Validate a batch document into a service config plus job specs."""
    if not isinstance(data, dict):
        raise ServiceError("batch script must be a JSON object")
    unknown = set(data) - {
        "seed",
        "cluster",
        "policy",
        "plan_cache_entries",
        "optimize",
        "tenants",
        "jobs",
    }
    if unknown:
        raise ServiceError(f"unknown batch script keys: {sorted(unknown)}")
    tenants = data.get("tenants")
    if not tenants:
        raise ServiceError("batch script needs a non-empty 'tenants' list")
    jobs = data.get("jobs")
    if not isinstance(jobs, list):
        raise ServiceError("batch script needs a 'jobs' list")
    cluster_data = dict(data.get("cluster") or {})
    bad = set(cluster_data) - _CLUSTER_KEYS
    if bad:
        raise ServiceError(f"unknown cluster keys in batch script: {sorted(bad)}")
    config = ServiceConfig(
        tenants=tuple(
            _build(TenantSpec, dict(t), "tenant") for t in tenants
        ),
        cluster=_build(ClusterConfig, cluster_data, "cluster"),
        policy=_build(AdmissionPolicy, dict(data.get("policy") or {}), "policy"),
        plan_cache_entries=int(data.get("plan_cache_entries", 128)),
        optimize=bool(data.get("optimize", False)),
        seed=int(data.get("seed", 0)),
    )
    specs = [_build(JobSpec, dict(job), "job") for job in jobs]
    return config, specs


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
    each, apps drawn (seeded) from the registry's ``mix`` rotation with a
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


def run_batch(
    config: ServiceConfig, specs: list[JobSpec]
) -> tuple[MatrixService, dict]:
    """Submit every job, drain the queue, return (service, report)."""
    service = MatrixService(config)
    for spec in specs:
        service.submit(spec)
    service.drain()
    return service, service.report()
