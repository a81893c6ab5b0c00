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

:func:`parse_batch` validates one and :func:`run_batch` executes it:
submit everything and drain the queue under stride scheduling.
"""

from __future__ import annotations

from repro.config import ClusterConfig
from repro.errors import ServiceError
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


def run_batch(config: ServiceConfig, specs: list[JobSpec]) -> MatrixService:
    """Submit every job and drain the queue; the service stays open."""
    service = MatrixService(config)
    for spec in specs:
        service.submit(spec)
    service.drain()
    return service
