"""Admission control: decide run / queue / reject before any execution.

Decisions are driven entirely by *static* predictions -- the cost model's
communication and flop totals for the plans that will run
(:class:`repro.core.cost.CostTable`) and the verifier's sound per-worker
peak-memory bound
(:func:`repro.verify.memory.predict_peak_memory`) -- so a job that would
blow a tenant's memory quota is rejected *before* it runs, with a typed
error, instead of aborting non-deterministically mid-execution.

Check order (first violation wins):

1. tenant memory quota vs predicted peak  -> reject (TenantQuotaExceededError)
2. service per-job byte/flop ceilings     -> reject (JobTooLargeError)
3. tenant / service queue backlog caps    -> reject (QueueFullError)
4. predicted-runtime backlog cap          -> reject (BacklogExceededError)
5. otherwise: "run" if the cluster is idle, else "queue"

The queue-depth checks come in two flavours: the *count* caps (3) bound
how many jobs may wait, while ``max_backlog_seconds`` (4) bounds how much
*predicted work* may wait -- :func:`repro.core.cost.seconds` turns the
cost model's byte/flop totals into network + compute seconds at the
cluster's simulated clock rates (stage latency is left out), so ten tiny
jobs and one huge job are told apart.  The same
per-job prediction drives the scheduler's optional
shortest-predicted-job-first order (``AdmissionPolicy.spjf``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import (
    AdmissionError,
    BacklogExceededError,
    JobTooLargeError,
    QueueFullError,
    TenantQuotaExceededError,
)
from repro.serve.job import TenantSpec
from repro.serve.plancache import CacheEntry


@dataclasses.dataclass(frozen=True)
class AdmissionPolicy:
    """Service-wide admission ceilings (None disables a check).

    ``max_backlog_seconds`` bounds the queue by *predicted runtime*
    rather than job count: a submission is rejected when the predicted
    runtimes already queued plus its own would exceed the cap.  ``spjf``
    additionally makes each tenant's queue dispatch shortest predicted
    job first (within a priority level), so a long job queues behind
    short ones instead of blocking them.
    """

    max_queued_jobs: Optional[int] = None  # across all tenants
    max_job_bytes: Optional[int] = None  # predicted communication
    max_job_flops: Optional[int] = None  # predicted compute
    max_backlog_seconds: Optional[float] = None  # predicted-runtime backlog
    spjf: bool = False  # shortest-predicted-job-first within a tenant


@dataclasses.dataclass(frozen=True)
class Decision:
    """The admission verdict for one submission."""

    action: str  # "run" | "queue" | "reject"
    reason: Optional[str] = None  # machine token, e.g. "memory-quota"
    detail: Optional[str] = None  # human sentence for reports/errors

    @property
    def admitted(self) -> bool:
        return self.action != "reject"


class AdmissionController:
    """Applies one :class:`AdmissionPolicy` plus per-tenant quotas."""

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy

    def evaluate(
        self,
        tenant: TenantSpec,
        entry: CacheEntry,
        *,
        service_queue_depth: int,
        tenant_queue_depth: int,
        idle: bool,
        backlog_seconds: float = 0.0,
        predicted_seconds: Optional[float] = None,
    ) -> Decision:
        quota = tenant.memory_quota_bytes
        if quota is not None and entry.predicted_peak_bytes > quota:
            return Decision(
                "reject",
                TenantQuotaExceededError.reason,
                f"predicted peak memory {entry.predicted_peak_bytes} B exceeds "
                f"tenant {tenant.name!r} quota {quota} B",
            )
        ceiling = self.policy.max_job_bytes
        if ceiling is not None and entry.predicted_bytes > ceiling:
            return Decision(
                "reject",
                JobTooLargeError.reason,
                f"predicted communication {entry.predicted_bytes} B exceeds "
                f"the service per-job ceiling {ceiling} B",
            )
        ceiling = self.policy.max_job_flops
        if ceiling is not None and entry.predicted_flops > ceiling:
            return Decision(
                "reject",
                JobTooLargeError.reason,
                f"predicted compute {entry.predicted_flops} flops exceeds "
                f"the service per-job ceiling {ceiling} flops",
            )
        cap = tenant.max_queued_jobs
        if cap is not None and tenant_queue_depth >= cap:
            return Decision(
                "reject",
                QueueFullError.reason,
                f"tenant {tenant.name!r} already has {tenant_queue_depth} "
                f"queued jobs (cap {cap})",
            )
        cap = self.policy.max_queued_jobs
        if cap is not None and service_queue_depth >= cap:
            return Decision(
                "reject",
                QueueFullError.reason,
                f"service queue holds {service_queue_depth} jobs (cap {cap})",
            )
        horizon = self.policy.max_backlog_seconds
        if (
            horizon is not None
            and predicted_seconds is not None
            and backlog_seconds + predicted_seconds > horizon
        ):
            return Decision(
                "reject",
                BacklogExceededError.reason,
                f"queued work predicts {backlog_seconds:.3f} s; adding "
                f"{predicted_seconds:.3f} s would exceed the backlog "
                f"horizon {horizon:.3f} s",
            )
        return Decision("run" if idle else "queue")

    @staticmethod
    def error_for(decision: Decision, tenant: str) -> AdmissionError:
        """The typed exception a rejecting decision maps to."""
        classes = {
            TenantQuotaExceededError.reason: TenantQuotaExceededError,
            JobTooLargeError.reason: JobTooLargeError,
            QueueFullError.reason: QueueFullError,
            BacklogExceededError.reason: BacklogExceededError,
        }
        cls = classes.get(decision.reason or "", AdmissionError)
        return cls(decision.detail or "job rejected", tenant=tenant)
