"""Tests for plan statistics / explain."""

import pytest

from repro import ClusterConfig, DMacSession
from repro.core.analysis import explain, format_statistics
from repro.core.planner import DMacPlanner
from repro.frontend.staged import segments_of
from repro.lang.program import ProgramBuilder
from repro.programs import build_gnmf_program, build_linreg_program
from repro.programs.registry import ALL_APPS, WorkloadParams, build_workload

#: Small sizes for the sweep over every registry app.
SMALL = WorkloadParams(
    scale=1e-3, rows=400, features=40, iterations=3, factors=8, rank=4
)


def plan_for(program, workers=4):
    return DMacPlanner(program, workers).plan()


class TestExplain:
    def test_comm_free_plan(self):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        pb.output(pb.assign("C", a + b))
        stats = explain(plan_for(pb.build()), 4)
        assert stats.comm_steps == 0
        assert stats.predicted_bytes == 0
        assert stats.predicted_bytes_by_stage == {}
        assert stats.free_dependency_ratio == 1.0

    def test_gnmf_statistics(self):
        program = build_gnmf_program((96, 64), 0.1, factors=8, iterations=2)
        stats = explain(plan_for(program), 4)
        assert stats.stages >= 2
        assert stats.comm_steps > 0
        assert sum(stats.strategy_counts.values()) >= 12  # 6 matmuls x 2 iters
        assert set(stats.strategy_counts) <= {"rmm1", "rmm2", "cpmm"}
        assert 0.0 <= stats.free_dependency_ratio <= 1.0

    def test_stage_bytes_cover_all_comm(self):
        program = build_gnmf_program((96, 64), 0.1, factors=8, iterations=1)
        stats = explain(plan_for(program), 4)
        # Every communicating step contributes to some stage's bytes.
        assert sum(stats.predicted_bytes_by_stage.values()) > 0
        assert all(stage >= 1 for stage in stats.predicted_bytes_by_stage)

    def test_linreg_matrix_moves_exclude_v(self):
        program = build_linreg_program((400, 40), 0.1, iterations=4)
        stats = explain(plan_for(program), 4)
        assert "V" not in stats.matrix_moves  # the paper's headline property

    def test_schedules_unstaged_plan(self):
        program = build_gnmf_program((32, 24), 0.2, factors=4, iterations=1)
        plan = plan_for(program)
        assert plan.num_stages == 0
        stats = explain(plan, 4)
        assert stats.stages >= 1

    def test_explain_is_pure(self):
        program = build_gnmf_program((32, 24), 0.2, factors=4, iterations=1)
        plan = plan_for(program)
        first = explain(plan, 4)
        second = explain(plan, 4)
        assert first == second

    @pytest.mark.parametrize("app", ALL_APPS)
    def test_stage_bytes_sum_to_the_plans_total(self, app):
        """Under the plan's own estimation mode, raw and optimized (the
        worst-case sizes used to be hard-coded: wrong under ``average``)."""
        view = segments_of(build_workload(app, SMALL).program)
        for mode in ("worst", "average"):
            for optimize in (False, True):
                session = DMacSession(
                    ClusterConfig(num_workers=4),
                    optimize=optimize,
                    estimation_mode=mode,
                )
                for __, program in view.programs:
                    plan = session.plan(program)
                    stats = explain(plan, 4, mode)
                    assert (
                        sum(stats.predicted_bytes_by_stage.values())
                        == plan.predicted_bytes
                    ), f"{app}/{mode}/optimize={optimize}"


class TestFormatStatistics:
    def test_renders_every_section(self):
        program = build_gnmf_program((96, 64), 0.1, factors=8, iterations=1)
        text = format_statistics(explain(plan_for(program), 4))
        for fragment in ("steps:", "predicted communication:", "strategies:",
                         "extended operators:", "communication by stage:"):
            assert fragment in text

    def test_empty_plan_sections_omitted(self):
        pb = ProgramBuilder()
        pb.output(pb.load("A", (4, 4)))
        text = format_statistics(explain(plan_for(pb.build()), 4))
        assert "strategies:" not in text
        assert "matrices crossing" not in text
