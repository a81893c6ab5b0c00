"""Elasticity policies: stage weights in, valid deterministic timelines out."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.core.cost import CostModel
from repro.elastic import (
    CostCappedPolicy,
    ElasticPool,
    FixedPolicy,
    LoadTrackingPolicy,
    timeline_spec,
)
from repro.elastic.spec import parse_elastic_spec
from repro.errors import ElasticSpecError
from repro.programs.registry import WorkloadParams, build_workload

WEIGHTS = [0.0, 2.0, 6.0, 6.0, 2.0, 1.0]  # stage 0 unused; peak at 2-3


def members_profile(events, initial, num_stages):
    pool = ElasticPool(events, initial=initial)
    return [len(pool.members_at(stage)) for stage in range(num_stages)]


def flops_by_stage(plan, workers=4):
    """The policies' input: the plan's per-stage work from its cost table."""
    return CostModel(plan.program, workers).price(plan).flops_by_stage


class TestPlanStageFlopWeights:
    def _plan(self, app="gnmf", **params):
        load = build_workload(app, WorkloadParams(scale=2e-3, iterations=2, **params))
        return DMacSession(ClusterConfig(num_workers=4)).plan(load.program)

    def test_same_shape_as_step_counts(self):
        """One entry per stage number, the shape a policy's timeline takes."""
        plan = self._plan()
        flops = flops_by_stage(plan)
        assert len(flops) == plan.num_stages + 1
        assert flops[0] == 0  # stages are 1-indexed
        assert sum(flops) > 0

    def test_multiply_stages_outweigh_bookkeeping_stages(self):
        """Counting steps would treat a scalar update and a dense multiply
        as equal load; the flop profile must not."""
        plan = self._plan()
        flops = flops_by_stage(plan)
        assert max(flops) > 100 * min(f for f in flops if f > 0)

    def test_deterministic(self):
        plan = self._plan("pagerank")
        assert flops_by_stage(plan) == flops_by_stage(plan)

    def test_empty_plan(self):
        import dataclasses

        plan = self._plan()
        empty = dataclasses.replace(plan, steps=[])
        assert flops_by_stage(empty) == []


class TestFixedPolicy:
    def test_emits_no_events(self):
        assert FixedPolicy().timeline(WEIGHTS, initial=4) == ()
        assert FixedPolicy().name == "fixed"


class TestLoadTrackingPolicy:
    def test_membership_tracks_the_stage_profile(self):
        policy = LoadTrackingPolicy(max_members=6)
        events = policy.timeline(WEIGHTS, initial=1)
        profile = members_profile(events, 1, len(WEIGHTS))
        # heaviest stages get the most members; never below one
        assert profile[2] == profile[3] == 6
        assert profile[1] == 2
        assert min(profile) >= 1

    def test_timeline_round_trips_through_the_grammar(self):
        events = LoadTrackingPolicy(max_members=5).timeline(WEIGHTS, initial=1)
        assert parse_elastic_spec(timeline_spec(events)) == events

    def test_timeline_is_valid_for_a_pool(self):
        events = LoadTrackingPolicy(max_members=4).timeline(WEIGHTS, initial=2)
        pool = ElasticPool(events, initial=2)
        assert pool.slots >= 2

    def test_max_members_must_be_positive(self):
        with pytest.raises(ElasticSpecError):
            LoadTrackingPolicy(max_members=0).timeline(WEIGHTS, initial=1)

    def test_no_weights_no_events(self):
        assert LoadTrackingPolicy(max_members=4).timeline([], initial=2) == ()


class TestCostCappedPolicy:
    def test_budget_bounds_the_worker_stages(self):
        policy = CostCappedPolicy(max_members=6, budget_worker_stages=10.0)
        events = policy.timeline(WEIGHTS, initial=1)
        profile = members_profile(events, 1, len(WEIGHTS))
        assert sum(profile) <= 10.0

    def test_extra_members_go_to_the_heaviest_stages_first(self):
        policy = CostCappedPolicy(max_members=6, budget_worker_stages=8.0)
        profile = members_profile(policy.timeline(WEIGHTS, initial=1), 1, len(WEIGHTS))
        assert max(profile) in (profile[2], profile[3])
        assert profile[2] >= profile[1]

    def test_exhausted_budget_stays_at_one_member_everywhere(self):
        policy = CostCappedPolicy(max_members=6, budget_worker_stages=0.0)
        assert policy.timeline(WEIGHTS, initial=1) == ()

    def test_generous_budget_converges_to_load_tracking_shape(self):
        capped = CostCappedPolicy(max_members=4, budget_worker_stages=1e9)
        profile = members_profile(capped.timeline(WEIGHTS, initial=1), 1, len(WEIGHTS))
        assert profile[2] == profile[3] == 4


class TestPolicyDrivenRuns:
    def test_policy_timeline_executes_deterministically(self):
        load = build_workload("gnmf", WorkloadParams(scale=2e-3, iterations=2))
        session = DMacSession(ClusterConfig(num_workers=4))
        weights = flops_by_stage(session.plan(load.program))
        events = LoadTrackingPolicy(max_members=6).timeline(weights, initial=4)
        spec = timeline_spec(events)

        def run():
            elastic_session = DMacSession(
                ClusterConfig(num_workers=4, elastic=spec)
            )
            return elastic_session.run(load.program, load.inputs)

        first, second = run(), run()
        assert first.comm_bytes == second.comm_bytes
        assert first.elastic == second.elastic
        for name in first.matrices:
            assert first.matrices[name].tobytes() == second.matrices[name].tobytes()
