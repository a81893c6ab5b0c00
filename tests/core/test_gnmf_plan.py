"""The Figure 3 analogue: structural properties of the GNMF execution plan.

The paper walks through the plan DMac generates for GNMF's first iteration
(Section 4.2.4, Figure 3).  Our greedy planner makes the same *class* of
decisions under its own size estimates; these tests pin the properties the
paper highlights rather than an exact strategy-by-strategy transcript.
"""

import pytest

from repro.core.plan import CellwiseStep, ExtendedStep, MatMulStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.programs import build_gnmf_program
from repro.runtime.graph import StageGraph

# Netflix-shaped (scaled): V tall and sparse, factor rank small.
V_SHAPE = (960, 360)
V_SPARSITY = 0.012
FACTORS = 8


@pytest.fixture(scope="module")
def one_iteration_plan():
    program = build_gnmf_program(V_SHAPE, V_SPARSITY, factors=FACTORS, iterations=1)
    return schedule_stages(DMacPlanner(program, 4).plan())


@pytest.fixture(scope="module")
def three_iteration_plan():
    program = build_gnmf_program(V_SHAPE, V_SPARSITY, factors=FACTORS, iterations=3)
    return schedule_stages(DMacPlanner(program, 4).plan())


class TestFigure3Properties:
    def test_stage_invariant_holds(self, one_iteration_plan):
        assert not list(StageGraph.from_plan(one_iteration_plan).stage_violations())

    def test_handful_of_stages(self, one_iteration_plan):
        # Figure 3 shows 5 stages for one iteration.
        assert 2 <= one_iteration_plan.num_stages <= 7

    def test_both_cellwise_phases_comm_free(self, one_iteration_plan):
        # "DMac can conduct this computation phase without any communication"
        cellwise = [s for s in one_iteration_plan.steps if isinstance(s, CellwiseStep)]
        assert len(cellwise) == 4  # H*(WtV), X/(WtWH), W*(VHt), Y/(WHHt)
        assert all(not s.communicates for s in cellwise)

    def test_v_is_never_repartitioned(self, three_iteration_plan):
        moves = [
            s
            for s in three_iteration_plan.steps
            if isinstance(s, ExtendedStep)
            and s.kind == "partition"
            and s.source.name == "V"
        ]
        assert moves == []

    def test_v_is_broadcast_at_most_once(self, three_iteration_plan):
        broadcasts = [
            s
            for s in three_iteration_plan.steps
            if isinstance(s, ExtendedStep)
            and s.kind == "broadcast"
            and s.source.name == "V"
        ]
        assert len(broadcasts) <= 1

    def test_w_moved_at_most_once_per_iteration(self, three_iteration_plan):
        """Section 6.5: 'W only needs to be partitioned once [per iteration]'
        -- vs four repartitions in SystemML-S."""
        from collections import Counter

        moves = Counter()
        for step in three_iteration_plan.steps:
            if isinstance(step, ExtendedStep) and step.communicates:
                if step.source.name.startswith("W"):
                    moves[step.source.name] += 1
        assert all(count <= 1 for count in moves.values()), moves

    def test_every_matmul_has_a_strategy_from_figure2(self, one_iteration_plan):
        for step in one_iteration_plan.steps:
            if isinstance(step, MatMulStep):
                assert step.strategy in ("rmm1", "rmm2", "cpmm")

    def test_transposes_are_free_local_steps(self, one_iteration_plan):
        for step in one_iteration_plan.steps:
            if isinstance(step, ExtendedStep) and step.kind == "transpose":
                assert not step.communicates

    def test_describe_renders_with_stages(self, one_iteration_plan):
        text = one_iteration_plan.describe()
        assert "-- stage 1 --" in text
        assert "[comm]" in text
