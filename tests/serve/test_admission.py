"""Admission control: quotas, ceilings, queue caps, typed rejections."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.core.cost import CostModel, seconds
from repro.errors import (
    AdmissionError,
    BacklogExceededError,
    JobTooLargeError,
    QueueFullError,
    TenantQuotaExceededError,
)
from repro.programs.registry import WorkloadParams, build_workload
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    JobSpec,
    MatrixService,
    ServiceClient,
    ServiceConfig,
    TenantSpec,
)
from repro.serve.plancache import plan_for_cache

PARAMS = {"scale": 5e-4, "iterations": 2, "rows": 300, "features": 30}


def make_entry(app="pagerank", **params):
    session = DMacSession(ClusterConfig(num_workers=4))
    workload = build_workload(app, WorkloadParams(**(params or PARAMS)))
    return plan_for_cache(session, workload.program)


def admission_seconds(nbytes, flops, cluster):
    """What the service publishes: network + compute, no stage latency."""
    predicted = seconds(
        nbytes, flops, 0, cluster.clock, cluster.num_workers,
        cluster.threads_per_worker,
    )
    return predicted.network + predicted.compute


def evaluate(policy=None, tenant=None, entry=None, **kwargs):
    controller = AdmissionController(policy or AdmissionPolicy())
    defaults = dict(service_queue_depth=0, tenant_queue_depth=0, idle=True)
    defaults.update(kwargs)
    return controller.evaluate(
        tenant or TenantSpec("t"), entry or make_entry(), **defaults
    )


class TestDecisions:
    def test_idle_cluster_runs(self):
        assert evaluate().action == "run"

    def test_busy_cluster_queues(self):
        assert evaluate(idle=False).action == "queue"

    def test_memory_quota_rejects(self):
        entry = make_entry()
        decision = evaluate(
            tenant=TenantSpec("t", memory_quota_bytes=1), entry=entry
        )
        assert decision.action == "reject"
        assert decision.reason == TenantQuotaExceededError.reason
        assert str(entry.predicted_peak_bytes) in decision.detail

    def test_byte_ceiling_rejects(self):
        decision = evaluate(policy=AdmissionPolicy(max_job_bytes=1))
        assert decision.action == "reject"
        assert decision.reason == JobTooLargeError.reason

    def test_flop_ceiling_rejects(self):
        decision = evaluate(policy=AdmissionPolicy(max_job_flops=1))
        assert decision.action == "reject"
        assert decision.reason == JobTooLargeError.reason

    def test_tenant_queue_cap_rejects(self):
        decision = evaluate(
            tenant=TenantSpec("t", max_queued_jobs=2), tenant_queue_depth=2
        )
        assert decision.action == "reject"
        assert decision.reason == QueueFullError.reason

    def test_service_queue_cap_rejects(self):
        decision = evaluate(
            policy=AdmissionPolicy(max_queued_jobs=3), service_queue_depth=3
        )
        assert decision.reason == QueueFullError.reason

    def test_quota_outranks_queue_cap(self):
        decision = evaluate(
            policy=AdmissionPolicy(max_queued_jobs=0),
            tenant=TenantSpec("t", memory_quota_bytes=1),
            service_queue_depth=5,
        )
        assert decision.reason == TenantQuotaExceededError.reason

    def test_error_mapping(self):
        decision = evaluate(policy=AdmissionPolicy(max_job_bytes=1))
        error = AdmissionController.error_for(decision, "t")
        assert isinstance(error, JobTooLargeError)
        assert isinstance(error, AdmissionError)
        assert error.tenant == "t"
        assert error.reason == "job-too-large"

    def test_backlog_horizon_rejects_on_predicted_runtime(self):
        decision = evaluate(
            policy=AdmissionPolicy(max_backlog_seconds=1.0),
            backlog_seconds=0.8,
            predicted_seconds=0.5,
        )
        assert decision.action == "reject"
        assert decision.reason == BacklogExceededError.reason
        error = AdmissionController.error_for(decision, "t")
        assert isinstance(error, BacklogExceededError)

    def test_backlog_horizon_admits_under_the_cap(self):
        decision = evaluate(
            policy=AdmissionPolicy(max_backlog_seconds=1.0),
            backlog_seconds=0.3,
            predicted_seconds=0.5,
            idle=False,
        )
        assert decision.action == "queue"

    def test_backlog_check_is_inert_without_a_prediction(self):
        decision = evaluate(
            policy=AdmissionPolicy(max_backlog_seconds=0.0001),
            backlog_seconds=100.0,
            predicted_seconds=None,
        )
        assert decision.admitted


class TestPredictFlops:
    """The flops an entry is admitted on (the formula itself:
    tests/core/test_cost_table.py)."""

    def test_positive_and_deterministic(self):
        assert make_entry().predicted_flops > 0
        assert make_entry().predicted_flops == make_entry().predicted_flops

    def test_scales_with_work(self):
        small = make_entry(scale=5e-4, iterations=2)
        large = make_entry(scale=2e-3, iterations=2)
        assert large.predicted_flops > small.predicted_flops


class TestPredictRuntimeSeconds:
    def test_combines_network_and_compute_terms(self):
        cluster = ClusterConfig(num_workers=2, threads_per_worker=2)
        clock = cluster.clock
        predicted = admission_seconds(1_000_000, 8_000_000, cluster)
        expected = 1_000_000 / clock.network_bytes_per_sec + 8_000_000 / (
            clock.dense_flops_per_sec * 4
        )
        assert predicted == pytest.approx(expected)

    def test_more_workers_predict_faster_compute(self):
        small = ClusterConfig(num_workers=2)
        large = ClusterConfig(num_workers=8)
        assert admission_seconds(0, 10**9, large) < admission_seconds(
            0, 10**9, small
        )


class TestBacklogAndSpjfIntegration:
    SHORT = {"scale": 5e-4, "iterations": 2}
    LONG = {"scale": 4e-3, "iterations": 4}

    def test_long_job_queues_behind_short_ones_under_spjf(self):
        """The satellite scenario: with SPJF on, a long job submitted
        *first* still dispatches after the short jobs it would delay."""
        service = MatrixService(
            ServiceConfig(
                tenants=(TenantSpec("t"),), policy=AdmissionPolicy(spjf=True)
            )
        )
        service.submit(
            JobSpec(tenant="t", app="gnmf", params=self.LONG, label="long")
        )
        service.submit(
            JobSpec(tenant="t", app="pagerank", params=self.SHORT, label="short")
        )
        records = service.drain()
        assert [r.app for r in records] == ["short", "long"]
        long_record = records[-1]
        short_record = records[0]
        assert long_record.predicted_seconds > short_record.predicted_seconds

    def test_fifo_order_without_spjf(self):
        service = MatrixService(ServiceConfig(tenants=(TenantSpec("t"),)))
        service.submit(
            JobSpec(tenant="t", app="gnmf", params=self.LONG, label="long")
        )
        service.submit(
            JobSpec(tenant="t", app="pagerank", params=self.SHORT, label="short")
        )
        assert [r.app for r in service.drain()] == ["long", "short"]

    def test_priority_still_outranks_predicted_runtime(self):
        service = MatrixService(
            ServiceConfig(
                tenants=(TenantSpec("t"),), policy=AdmissionPolicy(spjf=True)
            )
        )
        service.submit(
            JobSpec(
                tenant="t", app="gnmf", params=self.LONG,
                priority=5, label="urgent-long",
            )
        )
        service.submit(
            JobSpec(tenant="t", app="pagerank", params=self.SHORT, label="short")
        )
        assert [r.app for r in service.drain()] == ["urgent-long", "short"]

    def test_service_rejects_past_the_backlog_horizon(self):
        service = MatrixService(
            ServiceConfig(
                tenants=(TenantSpec("t"),),
                policy=AdmissionPolicy(max_backlog_seconds=0.0015),
            )
        )
        first = service.submit(
            JobSpec(tenant="t", app="pagerank", params=self.SHORT)
        )
        second = service.submit(JobSpec(tenant="t", app="gnmf", params=self.LONG))
        assert first.decision in ("run", "queue")
        assert second.state == "rejected"
        assert second.reject_reason == "backlog"
        assert "backlog" in repr(service.rejection_error(second).reason)

    def test_records_publish_the_predicted_seconds(self):
        service = MatrixService(ServiceConfig(tenants=(TenantSpec("t"),)))
        record = service.submit(
            JobSpec(tenant="t", app="pagerank", params=self.SHORT)
        )
        assert record.predicted_seconds == pytest.approx(
            admission_seconds(
                record.predicted_bytes,
                record.predicted_flops,
                service.config.cluster,
            )
        )
        assert record.to_json_dict()["predicted_seconds"] == record.predicted_seconds


class TestPredictionsPriceWhatRuns:
    def _record(self, cluster=None, app="pagerank", params=None, **config):
        service = MatrixService(
            ServiceConfig(
                tenants=(TenantSpec("t"),),
                cluster=cluster or ClusterConfig(),
                **config,
            )
        )
        with service.sessions["t"]:
            return service.submit(
                JobSpec(tenant="t", app=app, params=params or PARAMS)
            )

    def test_optimized_plans_are_priced_by_their_surviving_steps(self):
        """``optimize: true`` used to admit on the program's operators,
        charging work CSE had removed."""
        cluster = ClusterConfig()
        program = build_workload("pagerank", WorkloadParams(**PARAMS)).program
        plan = DMacSession(cluster, optimize=True).plan(program)
        table = CostModel(program, cluster.num_workers).price(plan)
        raw = self._record()
        optimized = self._record(optimize=True)
        assert optimized.predicted_flops == table.flops < raw.predicted_flops
        assert optimized.predicted_bytes == table.bytes == plan.predicted_bytes
        assert optimized.predicted_seconds < raw.predicted_seconds

    def test_elastic_timeline_is_priced_at_its_slot_count(self):
        """A timeline that peaks at four members is planned, sized and
        bounded for four slots; its compute seconds used to be priced for
        the two configured initial workers."""
        params = {"scale": 2e-3, "iterations": 1}
        static = self._record(ClusterConfig(num_workers=4), "gnmf", params)
        elastic = self._record(
            ClusterConfig(num_workers=2, elastic="join@1:count=2"), "gnmf", params
        )
        assert elastic.predicted_bytes == static.predicted_bytes
        assert elastic.predicted_peak_bytes == static.predicted_peak_bytes
        assert elastic.predicted_seconds == static.predicted_seconds


class TestServiceIntegration:
    def test_client_raises_typed_error_and_service_records_rejection(self):
        service = MatrixService(
            ServiceConfig(
                tenants=(TenantSpec("tiny", memory_quota_bytes=1),), seed=0
            )
        )
        client = ServiceClient(service)
        with pytest.raises(TenantQuotaExceededError) as info:
            client.submit("tiny", "pagerank", params=PARAMS)
        assert info.value.tenant == "tiny"
        record = service.records[-1]
        assert record.state == "rejected"
        assert record.reject_reason == "memory-quota"
        assert service.accountant.account("tiny").jobs_rejected == 1

    def test_rejected_jobs_never_execute(self):
        service = MatrixService(
            ServiceConfig(
                tenants=(TenantSpec("tiny", memory_quota_bytes=1),), seed=0
            )
        )
        service.submit(JobSpec(tenant="tiny", app="pagerank", params=PARAMS))
        assert service.drain() == []
        assert service.sim_now == 0.0
