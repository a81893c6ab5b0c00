"""End-to-end service behaviour: determinism, fairness, tenant isolation."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import ServiceError
from repro.frontend import Matrix, matrix_input, matrix_program
from repro.frontend.dsl import output
from repro.serve import (
    JobSpec,
    MatrixService,
    ServiceClient,
    ServiceConfig,
    TenantSpec,
    parse_batch,
    render_report,
    run_batch,
    synthetic_batch,
)

SMALL = {"scale": 5e-4, "iterations": 2, "rows": 300, "features": 30}


def small_batch(seed=7, **kwargs):
    batch = synthetic_batch(seed, **kwargs)
    for job in batch["jobs"]:
        job["params"].update(SMALL)
    return batch


class TestBatchValidation:
    def test_removed_backend_key_is_rejected(self):
        """The timeline *is* the selection: a script still carrying the
        old ``backend`` knob fails typed instead of being half-understood."""
        batch = small_batch(jobs_per_tenant=1)
        batch["cluster"] = {"backend": "elastic", "elastic": "join@2"}
        with pytest.raises(ServiceError, match=r"unknown cluster keys.*backend"):
            parse_batch(batch)

    def test_timeline_alone_selects_elastic_membership(self):
        batch = small_batch(jobs_per_tenant=1)
        batch["cluster"] = {"elastic": "join@2"}
        config, __ = parse_batch(batch)
        assert config.cluster.elastic == "join@2"


class TestDeterminism:
    def test_same_seed_byte_identical_reports(self):
        texts = []
        for _ in range(2):
            service, report = run_batch(*parse_batch(small_batch()))
            texts.append(render_report(report))
        assert texts[0] == texts[1]

    def test_reports_never_leak_nondeterministic_readings(self):
        # Wall clock and the realised memory peak both depend on real
        # thread timing; the report must carry neither (it publishes the
        # verifier's predicted peak instead).
        service, report = run_batch(*parse_batch(small_batch(jobs_per_tenant=1)))
        for job in report["jobs"]:
            assert "wall" not in " ".join(job)
            assert "peak_memory_bytes" not in job
            assert job["predicted_peak_bytes"] > 0
        record = service.records[0]
        assert record.plan_wall_seconds > 0  # measured, just not serialised
        assert record.run_wall_seconds > 0
        assert record.peak_memory_bytes > 0

    def test_different_seeds_differ(self):
        __, a = run_batch(*parse_batch(small_batch(seed=1)))
        __, b = run_batch(*parse_batch(small_batch(seed=2)))
        assert render_report(a) != render_report(b)


class TestPlanCache:
    def test_repeat_submission_hits(self):
        config = ServiceConfig(tenants=(TenantSpec("t"),), seed=0)
        service = MatrixService(config)
        client = ServiceClient(service)
        first = client.run("t", "pagerank", params=SMALL)
        second = client.run("t", "pagerank", params=SMALL)
        assert first.plan_cache == "miss"
        assert second.plan_cache == "hit"
        assert first.plan_hashes == second.plan_hashes
        # A hit skips planning entirely: its plan path is just fingerprint
        # + lookup, which must be far cheaper than actual planning.
        assert second.plan_wall_seconds < first.plan_wall_seconds
        # Identical program, identical plans: identical execution metrics.
        assert second.comm_bytes == first.comm_bytes
        assert second.flops == first.flops

    def test_hit_and_miss_counts_reach_the_report(self):
        __, report = run_batch(*parse_batch(small_batch(mix="cache-friendly")))
        stats = report["plan_cache"]
        assert stats["hits"] > 0
        assert stats["misses"] > 0
        assert stats["hits"] + stats["misses"] == len(report["jobs"])

    def test_cache_off_bypasses(self):
        batch = small_batch(jobs_per_tenant=1)
        batch["plan_cache_entries"] = 0
        __, report = run_batch(*parse_batch(batch))
        assert report["plan_cache"]["bypasses"] == len(report["jobs"])
        assert report["plan_cache"]["hits"] == 0


class TestFairness:
    def test_saturating_load_shares_within_tolerance(self):
        # Saturating 3-tenant load, equal weights: submit everything up
        # front, drain on a truncated horizon, require each tenant's share
        # of simulated seconds within 10% of its entitlement.
        config = ServiceConfig(
            tenants=(TenantSpec("a"), TenantSpec("b"), TenantSpec("c")),
            seed=0,
        )
        service = MatrixService(config)
        for tenant in ("a", "b", "c"):
            for __ in range(8):
                service.submit(
                    JobSpec(tenant=tenant, app="pagerank", params=SMALL)
                )
        # Truncate at roughly half the backlog so every tenant still has
        # queued work when we measure -- the load stays saturating.
        service.drain(horizon_seconds=6.0)
        assert not service.scheduler.idle
        shares = service.scheduler.shares()
        entitled = service.scheduler.entitled_shares()
        for tenant, share in shares.items():
            assert share == pytest.approx(entitled[tenant], abs=0.10), shares

    def test_weights_shift_shares(self):
        config = ServiceConfig(
            tenants=(TenantSpec("heavy", weight=3.0), TenantSpec("light")),
            seed=0,
        )
        service = MatrixService(config)
        for tenant in ("heavy", "light"):
            for __ in range(8):
                service.submit(
                    JobSpec(tenant=tenant, app="pagerank", params=SMALL)
                )
        service.drain(horizon_seconds=3.0)
        assert not service.scheduler.idle
        shares = service.scheduler.shares()
        assert shares["heavy"] > 0.6 > shares["light"]


class TestIsolation:
    def test_quota_tenant_rejected_without_affecting_others(self):
        # Solo run: tenant "ok" alone.
        solo = MatrixService(
            ServiceConfig(tenants=(TenantSpec("ok"),), seed=3)
        )
        solo_client = ServiceClient(solo)
        solo_record = solo_client.run("ok", "pagerank", params=SMALL)
        # Mixed run: same seed, plus a tenant whose quota rejects its job.
        mixed = MatrixService(
            ServiceConfig(
                tenants=(
                    TenantSpec("ok"),
                    TenantSpec("tiny", memory_quota_bytes=1),
                ),
                seed=3,
            )
        )
        mixed.submit(JobSpec(tenant="tiny", app="pagerank", params=SMALL))
        mixed.submit(JobSpec(tenant="ok", app="pagerank", params=SMALL))
        mixed.drain()
        mixed_record = next(r for r in mixed.records if r.tenant == "ok")
        assert mixed.records[0].state == "rejected"
        # The bystander's measured execution is byte-identical to its solo
        # run: same bytes, flops, simulated time, predictions, plan hashes.
        assert mixed_record.comm_bytes == solo_record.comm_bytes
        assert mixed_record.flops == solo_record.flops
        assert mixed_record.simulated_seconds == solo_record.simulated_seconds
        assert (
            mixed_record.predicted_peak_bytes == solo_record.predicted_peak_bytes
        )
        assert mixed_record.plan_hashes == solo_record.plan_hashes

    def test_per_tenant_ledgers_are_isolated(self):
        service, report = run_batch(*parse_batch(small_batch(jobs_per_tenant=1)))
        for tenant, scopes in report["ledger_scopes"].items():
            for scope in scopes:
                assert scope.startswith(f"tenant:{tenant}/"), (tenant, scope)

    def test_cache_quota_flows_into_session_config(self):
        config = ServiceConfig(
            tenants=(TenantSpec("t", cache_quota_bytes=12345),), seed=0
        )
        service = MatrixService(config)
        assert service.sessions["t"].config.cache_limit_bytes == 12345


class TestPrograms:
    def test_submit_frontend_program_object(self):
        @matrix_program
        def scaled(A: Matrix):
            B = A * 2.0
            output(B)

        rng = np.random.default_rng(0)
        service = MatrixService(
            ServiceConfig(tenants=(TenantSpec("t"),), seed=0)
        )
        client = ServiceClient(service)
        record = client.run(
            "t",
            program=scaled,
            inputs={"A": rng.random((100, 100))},
            params={"A": matrix_input((100, 100))},
            label="scaled",
        )
        assert record.state == "done"
        assert record.app == "scaled"

    def test_staged_jobs_run_through_cached_plans(self):
        service = MatrixService(
            ServiceConfig(tenants=(TenantSpec("t"),), seed=0)
        )
        client = ServiceClient(service)
        first = client.run("t", "powiter", params={"rows": 60})
        second = client.run("t", "powiter", params={"rows": 60})
        assert first.plan_cache == "miss" and second.plan_cache == "hit"
        assert first.segments == second.segments
        assert len(first.plan_hashes) == 2  # prologue + body

    def test_staged_job_books_equal_a_direct_run(self):
        """The service runs a loop program through the same one driver:
        miss and hit report exactly the books of two direct runs."""
        from repro.programs.registry import WorkloadParams, build_workload
        from repro.session import DMacSession

        config = ServiceConfig(tenants=(TenantSpec("t"),), seed=0)
        client = ServiceClient(MatrixService(config))
        records = [client.run("t", "powiter", params={"rows": 60}) for _ in range(2)]
        assert [r.plan_cache for r in records] == ["miss", "hit"]
        load = build_workload("powiter", WorkloadParams(rows=60))
        session = DMacSession(config.cluster)
        for record in records:
            direct = session.run(load.program, load.inputs, trace=True)
            assert record.state == "done"
            assert record.segments == direct.num_segments >= 2
            assert record.comm_bytes == direct.comm_bytes
            assert record.simulated_seconds == direct.simulated_seconds
            assert record.num_stages == direct.num_stages
            assert record.flops == sum(step.flops for step in direct.trace) > 0
            assert record.block_cache == direct.cache

    def test_segments_are_reported_for_loop_programs_only(self):
        client = ServiceClient(
            MatrixService(ServiceConfig(tenants=(TenantSpec("t"),), seed=0))
        )
        straight = client.run("t", "pagerank", params=SMALL)
        at_once = client.run("t", "powiter", params={"rows": 60, "eps": 1e9})
        assert straight.state == at_once.state == "done"
        assert straight.segments is None  # no loop: the key stays null
        assert at_once.segments == 0  # a loop whose condition is false at once

    def test_accounts_aggregate_job_costs(self):
        service, report = run_batch(*parse_batch(small_batch(jobs_per_tenant=2)))
        for name, account in report["accounts"].items():
            records = [r for r in service.records if r.tenant == name]
            assert account["jobs_submitted"] == len(records)
            assert account["comm_bytes"] == sum(r.comm_bytes for r in records)
            assert account["flops"] == sum(r.flops for r in records)
