"""The multi-tenant matrix-computation service.

One :class:`MatrixService` owns a *shared simulated cluster template*:
every tenant gets its own :class:`~repro.session.DMacSession` (own
communication ledger, simulated clock, BlockCache with the tenant's cache
quota) built from the same :class:`~repro.config.ClusterConfig`, so runs
are isolated exactly like the benchmarks' per-system sessions, while the
service-level clock totals simulated seconds across tenants in dispatch
order.

Life of a job::

    submit --> fingerprint --> plan cache (hit | miss: plan + predict)
           --> admission (run | queue | reject, typed errors)
           --> stride-scheduler queue
    step/drain --> dispatch fairest tenant's job --> execute on the
           tenant's session under ledger scope "tenant:<t>/job-<id>"
           --> account bytes/flops/seconds/cache to the tenant

Everything is deterministic under a fixed seed: dispatch order is decided
by (pass value, tenant name), the service clock is simulated, and reports
never contain wall-clock readings.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from repro.config import ClusterConfig
from repro.core.cost import seconds
from repro.errors import ServiceError
from repro.frontend.staged import StagedProgram
from repro.lang.program import MatrixProgram
from repro.programs.registry import WorkloadParams, build_workload
from repro.serve.accounting import Accountant
from repro.serve.admission import AdmissionController, AdmissionPolicy, Decision
from repro.serve.job import JobRecord, JobSpec, TenantSpec
from repro.serve.plancache import CacheEntry, PlanCache, plan_for_cache
from repro.serve.scheduler import StrideScheduler
from repro.session import DMacSession


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Static description of one service instance."""

    tenants: tuple[TenantSpec, ...]
    cluster: ClusterConfig = dataclasses.field(default_factory=ClusterConfig)
    policy: AdmissionPolicy = dataclasses.field(default_factory=AdmissionPolicy)
    plan_cache_entries: int = 128
    optimize: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServiceError("a service needs at least one tenant")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate tenant names: {sorted(names)}")


@dataclasses.dataclass
class _PendingJob:
    """Submit-time context a queued job needs at dispatch."""

    record: JobRecord
    program: object  # MatrixProgram | StagedProgram
    inputs: dict
    entry: CacheEntry


class MatrixService:
    """Accepts, schedules and accounts jobs across tenants."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.tenants = {tenant.name: tenant for tenant in config.tenants}
        self.sessions: dict[str, DMacSession] = {
            tenant.name: DMacSession(
                self._tenant_cluster(tenant), optimize=config.optimize
            )
            for tenant in config.tenants
        }
        self.plan_cache = PlanCache(config.plan_cache_entries)
        self.admission = AdmissionController(config.policy)
        self.scheduler = StrideScheduler(
            {tenant.name: tenant.weight for tenant in config.tenants},
            spjf=config.policy.spjf,
        )
        self.accountant = Accountant(tuple(sorted(self.tenants)))
        self.records: list[JobRecord] = []
        #: Service-level simulated clock: sum of dispatched job durations.
        self.sim_now = 0.0
        self._pending: dict[int, _PendingJob] = {}
        self._next_id = 1

    def close(self) -> None:
        """Close every tenant session; reports stay readable.  Idempotent."""
        for session in self.sessions.values():
            session.close()

    def _tenant_cluster(self, tenant: TenantSpec) -> ClusterConfig:
        if tenant.cache_quota_bytes is None:
            return self.config.cluster
        return dataclasses.replace(
            self.config.cluster, cache_limit_bytes=tenant.cache_quota_bytes
        )

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobRecord:
        """Admit one job: plan (or reuse the cached plan), predict, decide.

        Never raises for a *rejection* -- the returned record carries
        ``state="rejected"`` plus the machine reason; callers who want the
        typed exception can raise :meth:`rejection_error`.  Malformed
        submissions (unknown tenant/app, bad params) do raise.
        """
        tenant = self.tenants.get(spec.tenant)
        if tenant is None:
            raise ServiceError(
                f"unknown tenant {spec.tenant!r} "
                f"(registered: {sorted(self.tenants)})"
            )
        program, inputs = self._resolve(spec)
        record = JobRecord(
            job_id=self._next_id,
            tenant=spec.tenant,
            app=spec.display_name,
            priority=spec.priority,
        )
        self._next_id += 1
        self.records.append(record)
        self.accountant.record_submission(record)

        session = self.sessions[spec.tenant]
        entry = self._plan_entry(session, program, record)
        record.predicted_bytes = entry.predicted_bytes
        record.predicted_flops = entry.predicted_flops
        record.predicted_peak_bytes = entry.predicted_peak_bytes
        # Priced for the cluster the plans were sized for: the session's
        # config counts the slots of an elastic timeline, the template does
        # not.  Stage latency stays out of the admission scale.
        config = session.config
        predicted = seconds(
            entry.predicted_bytes,
            entry.predicted_flops,
            sum(plan.num_stages for plan in entry.plans),
            config.clock,
            config.num_workers,
            config.threads_per_worker,
        )
        record.predicted_seconds = predicted.network + predicted.compute
        record.plan_hashes = entry.structural_hashes

        decision = self.admission.evaluate(
            tenant,
            entry,
            service_queue_depth=self.scheduler.queue_depth(),
            tenant_queue_depth=self.scheduler.queue_depth(spec.tenant),
            idle=self.scheduler.idle,
            backlog_seconds=self.backlog_seconds(),
            predicted_seconds=record.predicted_seconds,
        )
        record.decision = decision.action
        if not decision.admitted:
            record.state = "rejected"
            record.reject_reason = decision.reason
            record.error = decision.detail
            self.accountant.record_outcome(record)
            return record
        record.submitted_sim_seconds = self.sim_now
        self._pending[record.job_id] = _PendingJob(record, program, inputs, entry)
        self.scheduler.enqueue(record)
        return record

    def backlog_seconds(self) -> float:
        """Predicted runtime of everything currently queued (the quantity
        :attr:`AdmissionPolicy.max_backlog_seconds` bounds)."""
        return sum(
            pending.record.predicted_seconds or 0.0
            for pending in self._pending.values()
        )

    def rejection_error(self, record: JobRecord):
        """The typed :class:`~repro.errors.AdmissionError` for a rejected
        record (raise it, or branch on its ``reason``)."""
        if record.state != "rejected":
            raise ServiceError(f"job {record.job_id} was not rejected")
        return AdmissionController.error_for(
            Decision("reject", record.reject_reason, record.error), record.tenant
        )

    def _resolve(self, spec: JobSpec) -> tuple[object, dict]:
        """Turn a spec into (compiled program, input arrays)."""
        if spec.app is not None:
            try:
                params = WorkloadParams(**spec.params)
            except TypeError as exc:
                raise ServiceError(
                    f"bad workload params for {spec.app!r}: {exc}"
                ) from None
            workload = build_workload(spec.app, params)
            return workload.program, dict(workload.inputs)
        program = spec.program
        if not isinstance(program, (MatrixProgram, StagedProgram)):
            compile_fn = getattr(program, "compile", None)
            if compile_fn is None:
                raise ServiceError(
                    f"cannot serve {type(program).__name__!r}: submit a "
                    "MatrixProgram, a StagedProgram, or a frontend program "
                    "with .compile()"
                )
            program = compile_fn(**spec.params)
        return program, dict(spec.inputs or {})

    def _plan_entry(
        self, session: DMacSession, program, record: JobRecord
    ) -> CacheEntry:
        from repro.planopt.structural import program_fingerprint

        started = time.perf_counter()
        config = self.config.cluster
        fingerprint = program_fingerprint(
            program,
            num_workers=config.num_workers,
            threads_per_worker=config.threads_per_worker,
            block_size=config.block_size,
            inplace=config.inplace,
            max_concurrent_stages=config.max_concurrent_stages,
            optimize=self.config.optimize,
            estimation_mode=session.estimation_mode,
        )
        entry = self.plan_cache.lookup(fingerprint)
        if entry is not None:
            record.plan_cache = "hit"
        else:
            record.plan_cache = "miss" if self.plan_cache.enabled else "bypass"
            entry = dataclasses.replace(
                plan_for_cache(session, program), fingerprint=fingerprint
            )
            self.plan_cache.insert(entry)
        # Full plan-path cost of THIS submission: fingerprint + lookup on a
        # hit, fingerprint + planning + prediction on a miss.  In-memory
        # diagnostic for the throughput benchmark's 10x claim.
        record.plan_wall_seconds = time.perf_counter() - started
        return entry

    # -- dispatch ------------------------------------------------------------

    def step(self) -> Optional[JobRecord]:
        """Dispatch and execute the fairest queued job; None when idle."""
        record = self.scheduler.next_job()
        if record is None:
            return None
        pending = self._pending.pop(record.job_id)
        self._execute(pending)
        self.accountant.record_outcome(record)
        return record

    def drain(
        self,
        max_jobs: Optional[int] = None,
        horizon_seconds: Optional[float] = None,
    ) -> list[JobRecord]:
        """Run queued jobs until empty (or a job/limit horizon is hit).

        ``horizon_seconds`` stops *dispatching* once the service clock
        passes it -- the truncated-horizon mode the fairness tests measure
        shares on; jobs still queued stay queued.
        """
        finished: list[JobRecord] = []
        while max_jobs is None or len(finished) < max_jobs:
            if horizon_seconds is not None and self.sim_now >= horizon_seconds:
                break
            record = self.step()
            if record is None:
                break
            finished.append(record)
        return finished

    def _execute(self, pending: _PendingJob) -> None:
        record = pending.record
        session = self.sessions[record.tenant]
        record.state = "running"
        record.started_sim_seconds = self.sim_now
        scope = f"tenant:{record.tenant}/job-{record.job_id}"
        started = time.perf_counter()
        try:
            with session.context.ledger.scope(scope):
                result = session.run(
                    pending.program,
                    pending.inputs,
                    plan=pending.entry.plans,
                    trace=True,
                )
        except Exception as exc:  # noqa: BLE001 - one job must not kill the service
            record.state = "failed"
            record.error = f"{type(exc).__name__}: {exc}"
            record.finished_sim_seconds = self.sim_now
            record.run_wall_seconds = time.perf_counter() - started
            return
        record.run_wall_seconds = time.perf_counter() - started
        record.state = "done"
        if result.loop is not None:
            record.segments = result.num_segments
        record.comm_bytes = result.comm_bytes
        record.flops = sum(step.flops for step in result.trace)
        record.simulated_seconds = result.simulated_seconds
        record.num_stages = result.num_stages
        record.peak_memory_bytes = result.peak_memory_bytes
        record.block_cache = result.cache
        self.sim_now += result.simulated_seconds
        record.finished_sim_seconds = self.sim_now
        self.scheduler.charge(record.tenant, result.simulated_seconds)

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """The deterministic service report (see :mod:`repro.serve.report`)."""
        from repro.serve.report import build_report

        return build_report(self)
