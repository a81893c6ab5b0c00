"""Tests for the stage scheduler (Section 5.2)."""

from repro.core.plan import CellwiseStep
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lang.program import ProgramBuilder
from repro.runtime.graph import StageGraph


def staged_plan(program, workers=4):
    return schedule_stages(DMacPlanner(program, workers).plan())


class TestBasicScheduling:
    def test_comm_free_program_is_one_stage(self):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        b = pb.load("B", (16, 16))
        pb.output(pb.assign("C", (a + b) * a - b))
        plan = staged_plan(pb.build())
        assert plan.num_stages == 1
        assert all(step.stage == 1 for step in plan.steps)

    def test_broadcast_cuts_a_stage(self):
        pb = ProgramBuilder()
        a = pb.load("A", (64, 64))
        b = pb.load("B", (64, 4))
        pb.output(pb.assign("C", a @ b))  # some strategy must move A or B
        plan = staged_plan(pb.build())
        assert plan.num_stages >= 2

    def test_stage_numbers_start_at_one(self):
        pb = ProgramBuilder()
        pb.output(pb.load("A", (4, 4)))
        plan = staged_plan(pb.build())
        assert min(step.stage for step in plan.steps) == 1

    def test_idempotent(self):
        pb = ProgramBuilder()
        a = pb.load("A", (16, 16))
        pb.output(pb.assign("B", a + a))
        plan = staged_plan(pb.build())
        stages = [s.stage for s in plan.steps]
        schedule_stages(plan)
        assert [s.stage for s in plan.steps] == stages


class TestStageInvariant:
    def gnmf_plan(self):
        from repro.programs import build_gnmf_program

        return staged_plan(build_gnmf_program((64, 48), 0.1, factors=4, iterations=2))

    def test_validate_passes_on_real_plan(self):
        assert not list(StageGraph.from_plan(self.gnmf_plan()).stage_violations())

    def test_comm_outputs_only_consumed_later(self):
        plan = self.gnmf_plan()
        produced_stage = {}
        for step in plan.steps:
            for instance in step.inputs():
                if instance in produced_stage:
                    # a communicating producer's output lands one stage later
                    assert step.stage >= produced_stage[instance]
            output = getattr(step, "output", None) or getattr(step, "target", None)
            if output is not None:
                produced_stage[output] = step.stage + (1 if step.communicates else 0)

    def test_no_comm_step_inside_consumer_stage(self):
        """The defining property: within one stage, nothing communicates
        between the production and consumption of an instance."""
        plan = self.gnmf_plan()
        for step in plan.steps:
            if isinstance(step, (CellwiseStep,)):
                # cellwise is always comm-free and runs in its inputs' stage
                assert not step.communicates

    def test_validator_rejects_corrupted_schedule(self):
        plan = self.gnmf_plan()
        victim = next(s for s in plan.steps if s.communicates)
        # Pretend the communicating step ran one stage later than its input allows
        consumers = [
            s
            for s in plan.steps
            if any(
                i == (getattr(victim, "output", None) or getattr(victim, "target", None))
                for i in s.inputs()
            )
        ]
        if consumers:
            consumers[0].stage = victim.stage  # too early: comm not finished
            assert list(StageGraph.from_plan(plan).stage_violations())

    def test_stage_count_grows_with_iterations(self):
        from repro.programs import build_gnmf_program

        one = staged_plan(build_gnmf_program((64, 48), 0.1, factors=4, iterations=1))
        three = staged_plan(build_gnmf_program((64, 48), 0.1, factors=4, iterations=3))
        assert three.num_stages > one.num_stages

    def test_gnmf_iteration_stage_count_matches_paper_scale(self):
        """Figure 3: one GNMF iteration schedules into a handful (~5) of
        stages, not one per operator."""
        from repro.programs import build_gnmf_program

        program = build_gnmf_program((64, 48), 0.1, factors=4, iterations=1)
        plan = staged_plan(program)
        operators = len(program.ops)
        assert plan.num_stages <= 7
        assert plan.num_stages < operators
