"""Membership timelines end to end: static equivalence, churn, recovery.

The determinism contract under test: a run is a pure function of
``(program, inputs, timeline, elastic_seed, fault seed)``.  With no
timeline it *is* the static cluster (``test_golden_books.py`` pins that
against the books of the separate static path this design replaced); with
one, same-seed repeats are byte-identical to each other -- clean and under
injected faults alike.
"""

from collections import Counter
from unittest import mock

import numpy as np
import pytest

from repro import ClusterConfig, DMacSession
from repro.errors import ExecutionError
from repro.faults import ChaosEngine, parse_fault_spec
from repro.matrix.distributed import DistributedMatrix
from repro.programs.registry import PAPER_APPS, WorkloadParams, build_workload
from repro.rdd.context import ClusterContext
from repro.runtime.resources import ResourceManager

PARAMS = {"scale": 2e-3, "iterations": 3, "rows": 400, "features": 30}


def workload(app="gnmf"):
    return build_workload(app, WorkloadParams(**PARAMS))


def session_for(elastic=None, elastic_seed=0, workers=4):
    return DMacSession(
        ClusterConfig(
            num_workers=workers,
            threads_per_worker=2,
            elastic=elastic,
            elastic_seed=elastic_seed,
        )
    )


def run(app="gnmf", elastic=None, elastic_seed=0, chaos_spec=None, fault_seed=0):
    load = workload(app)
    session = session_for(elastic, elastic_seed)
    chaos = None
    if chaos_spec is not None:
        chaos = ChaosEngine(fault_seed, parse_fault_spec(chaos_spec))
    result = session.run(load.program, load.inputs, chaos=chaos)
    return session, result


class TestStaticEquivalence:
    def test_churn_preserves_numerics(self):
        __, static = run(elastic=None)
        __, elastic = run(elastic="join@2:count=2; leave@5:worker=0")
        for name in static.matrices:
            np.testing.assert_allclose(
                elastic.matrices[name], static.matrices[name], atol=1e-9
            )

    def test_systemml_baseline_refuses_the_elastic_backend(self):
        """The baseline has no transition hook: it refuses a session whose
        timeline has events rather than silently ignoring them."""
        load = workload()
        session = session_for("join@2")
        with pytest.raises(ExecutionError, match="static cluster"):
            session.run_systemml(load.program, load.inputs)


class TestSessionPlumbing:
    def test_session_sizes_the_cluster_at_peak_membership(self):
        session = session_for("join@2:count=3", workers=4)
        assert session.config.num_workers == 7  # slots = peak
        assert session.context.num_workers == 7
        assert session.context.pool.members == (0, 1, 2, 3)

    def test_result_carries_the_elastic_summary(self):
        __, result = run(elastic="join@2; leave@5")
        summary = result.elastic
        assert summary["slots"] == 5
        assert summary["initial_members"] == 4
        assert summary["final_members"] == 4
        assert len(summary["events"]) == 2
        assert summary["worker_seconds"] > 0
        assert summary["worker_seconds"] < summary["slot_seconds"]

    def test_static_backend_reports_no_elastic_summary(self):
        """No timeline, nothing elastic to report: the always-built summary
        has no events and bills exactly the fixed cluster's cost."""
        session, result = run(elastic=None)
        summary = result.elastic
        assert summary["events"] == []
        assert summary["rebalance_bytes"] == 0
        assert summary["initial_members"] == summary["final_members"] == 4
        assert summary["slots"] == 4
        assert summary["worker_seconds"] == summary["slot_seconds"]
        assert session.context.workers() == (0, 1, 2, 3)
        assert [
            session.context.pool.member_for_slot(slot) for slot in range(4)
        ] == [0, 1, 2, 3], "a static cluster's worker ids are its positions"


class TestJoin:
    def test_join_meters_rebalance_traffic(self):
        session, result = run(elastic="join@2")
        kinds = session.context.ledger.bytes_by_kind()
        assert kinds.get("rebalance", 0) > 0
        assert result.elastic["rebalance_bytes"] == kinds["rebalance"]

    def test_rebalance_traffic_rides_the_ordinary_ledger_links(self):
        session, __ = run(elastic="join@2")
        links = session.context.ledger.bytes_by_link()
        assert links, "rebalance transfers must record worker->worker links"

    def test_static_membership_run_has_no_rebalance(self):
        session, result = run(elastic="")
        assert "rebalance" not in session.context.ledger.bytes_by_kind()
        assert result.elastic["rebalance_bytes"] == 0


class TestLeaveAndRecovery:
    """Satellite matrix: the owner of a lost block has *left* the pool."""

    TIMELINE = "join@2; leave@5:worker=0"

    def test_departed_members_blocks_recover_through_lineage(self):
        __, result = run(elastic=self.TIMELINE)
        recovery = result.recovery
        assert recovery["blocks_lost"] > 0
        assert recovery["blocks_recovered"] == recovery["blocks_lost"]
        assert recovery["steps_recomputed"] > 0
        # ... and the numerics still match the static cluster.
        __, static = run(elastic=None)
        for name in static.matrices:
            np.testing.assert_allclose(
                result.matrices[name], static.matrices[name], atol=1e-9
            )

    def test_recomputation_lands_on_surviving_members(self):
        session, result = run(elastic="leave@3:worker=0", elastic_seed=3)
        pool = session.context.pool
        assert 0 not in pool.members
        assert result.recovery["blocks_recovered"] > 0
        # every slot -- including the departed member's -- is owned by a
        # survivor, so recovery recomputation can only charge survivors
        for slot in range(pool.slots):
            assert pool.member_for_slot(slot) in pool.members
        flops = {m: sum(f) for m, f in session.context.flops_snapshot().items()}
        assert flops[0] > 0, "member 0 worked stages 1-2 before leaving"
        assert max(flops[m] for m in pool.members) > flops[0], (
            "post-leave work (including recovery recomputation) must be "
            "charged to surviving members, whose totals keep growing"
        )

    def test_ledger_books_reconcile_when_a_block_owner_left(self):
        """Every publish balances against releases/losses/restores even
        when the worker owning the lost blocks is no longer in the pool."""
        created: list[ResourceManager] = []

        class Recording(ResourceManager):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        load = workload()
        session = session_for(self.TIMELINE)
        with mock.patch("repro.runtime.executor.ResourceManager", Recording):
            session.run(load.program, load.inputs)
        (manager,) = created
        assert manager.events_dropped == 0
        published = Counter(i for kind, i in manager.events if kind == "publish")
        released = Counter(i for kind, i in manager.events if kind == "release")
        losts = Counter(i for kind, i in manager.events if kind == "lost")
        restores = Counter(i for kind, i in manager.events if kind == "restore")
        assert losts, "the leave must actually lose blocks in this scenario"
        for instance, count in published.items():
            assert count == 1
            assert (
                released[instance] + losts[instance] - restores[instance] == 1
            ), f"books unbalanced for {instance}"
        assert manager.live_instances() == []


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        first_session, first = run(elastic="join@2; leave@5:worker=0")
        second_session, second = run(elastic="join@2; leave@5:worker=0")
        assert first.comm_bytes == second.comm_bytes
        assert first.simulated_seconds == second.simulated_seconds
        assert first.elastic == second.elastic
        assert (
            first_session.context.ledger.bytes_by_kind()
            == second_session.context.ledger.bytes_by_kind()
        )
        for name in first.matrices:
            assert first.matrices[name].tobytes() == second.matrices[name].tobytes()

    def test_same_seed_runs_are_byte_identical_under_faults(self):
        """Scale-while-failing: elastic churn and injected faults in one
        run, still a pure function of the seeds."""
        spec = "flaky:stage=3,p=1.0,times=1; lostblock:instance=H,iteration=2,times=1"
        timeline = "join@2; leave@6:worker=0"
        __, first = run(elastic=timeline, chaos_spec=spec, fault_seed=11)
        __, second = run(elastic=timeline, chaos_spec=spec, fault_seed=11)
        assert first.recovery["injected"] == second.recovery["injected"] > 0
        assert first.recovery["blocks_lost"] == second.recovery["blocks_lost"]
        assert first.comm_bytes == second.comm_bytes
        assert first.elastic == second.elastic
        for name in first.matrices:
            assert first.matrices[name].tobytes() == second.matrices[name].tobytes()
        # and the combined run still matches the clean static numerics
        __, static = run(elastic=None)
        for name in static.matrices:
            np.testing.assert_allclose(
                first.matrices[name], static.matrices[name], atol=1e-9
            )

    def test_elastic_seed_changes_the_assignment_not_the_answer(self):
        __, a = run(elastic="join@2; leave@5", elastic_seed=0)
        __, b = run(elastic="join@2; leave@5", elastic_seed=42)
        for name in a.matrices:
            np.testing.assert_allclose(a.matrices[name], b.matrices[name], atol=1e-9)

    def test_rebalance_transfers_are_fault_injectable(self):
        __, result = run(
            elastic="join@2",
            chaos_spec="flaky:at=rebalance,p=1.0,times=1",
        )
        assert result.recovery["injected"] == 1
        assert result.recovery["retries"] == 1
        __, static = run(elastic=None)
        for name in static.matrices:
            np.testing.assert_allclose(
                result.matrices[name], static.matrices[name], atol=1e-9
            )


@pytest.mark.parametrize("app", PAPER_APPS)
def test_every_paper_app_survives_churn(app):
    """The acceptance matrix: all seven applications run under a
    join/leave timeline and reproduce the static cluster's numerics."""
    __, static = run(app, elastic=None)
    __, elastic = run(app, elastic="join@2; leave@4")
    assert set(elastic.matrices) == set(static.matrices)
    for name in static.matrices:
        np.testing.assert_allclose(
            elastic.matrices[name], static.matrices[name], atol=1e-8
        )


class TestStagedPrograms:
    def test_staged_run_aggregates_elastic_summaries(self):
        load = build_workload("powiter", WorkloadParams(rows=200, eps=1e-3))
        session = session_for("join@5; leave@20")
        result = session.run(load.program, load.inputs)
        summary = result.elastic
        assert summary is not None
        assert len(summary["events"]) == 2
        assert summary["worker_seconds"] > 0
        assert session.context.pool.stage_offset == sum(
            record.result.num_stages for record in result.segments
        )


class TestCacheAccounting:
    """Cache accounting keys off the live worker set, not range(K)."""

    def test_cached_bytes_follow_the_slot_owners(self):
        context = ClusterContext(ClusterConfig(num_workers=3, elastic="join@1"))
        pool = context.pool
        backend = context.make_backend()
        matrix = DistributedMatrix.from_numpy(
            context, np.arange(64.0).reshape(8, 8), block_size=2
        )
        before = backend.cached_bytes(matrix)
        assert set(before) <= set(pool.members)
        total = sum(before.values())
        assert total > 0
        pool.commit(pool.next_transition(1))
        after = backend.cached_bytes(matrix)
        assert set(after) <= set(pool.members)
        assert sum(after.values()) == total, (
            "churn moves residency between members but never changes the "
            "total resident bytes"
        )

    def test_static_backend_accounts_by_context_workers(self):
        """On a static cluster the backend keys its books off the
        context's worker set rather than a hardcoded range."""
        session = session_for()
        backend = session.context.make_backend()
        matrix = DistributedMatrix.from_numpy(
            session.context, np.arange(64.0).reshape(8, 8), block_size=2
        )
        cached = backend.cached_bytes(matrix)
        assert set(cached) <= set(session.context.workers())
        sources = backend.flop_sources()
        assert set(sources) == set(session.context.workers())
