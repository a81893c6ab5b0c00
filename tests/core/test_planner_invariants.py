"""Structural planner invariants, property-tested over random programs.

These pin the internal consistency of Algorithm 1's output independently of
its cost quality:

* production before consumption, with no duplicate instance registrations,
* dependency chains of at most two extended steps per input event
  (Table 2: one free local step + one communicating step),
* plans are deterministic functions of (program, workers, flags),
* every compute operator of the program appears exactly once in the plan,
* predicted bytes is exactly the sum over communicating steps of the cost
  model's charge.
"""

from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from repro.core.estimator import SizeEstimator
from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    MatMulStep,
    RowAggStep,
    ScalarMatrixStep,
    SourceStep,
    UnaryStep,
)
from repro.core.planner import DMacPlanner
from repro.lang.program import (
    AggregateOp,
    CellwiseOp,
    MatMulOp,
    RowAggOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)

from tests.program_strategy import matrix_programs


workers_strategy = st.integers(1, 6)


@given(matrix_programs(), workers_strategy)
def test_production_before_consumption(program, workers):
    plan = DMacPlanner(program, workers).plan()
    produced = set()
    for step in plan.steps:
        for instance in step.inputs():
            assert instance in produced, f"{step} consumes unproduced {instance}"
        output = getattr(step, "output", None) or getattr(step, "target", None)
        if output is not None:
            assert output not in produced, f"{output} produced twice"
            produced.add(output)


@given(matrix_programs(), workers_strategy)
def test_chains_have_at_most_one_comm_step_per_matrix_event(program, workers):
    """Between two compute steps, a matrix never pays twice: consecutive
    extended steps on the same logical matrix contain at most one
    communicating step (Table 2 lowering)."""
    plan = DMacPlanner(program, workers).plan()
    run_comm = 0
    previous_name = None
    for step in plan.steps:
        if isinstance(step, ExtendedStep):
            if step.source.name != previous_name:
                run_comm = 0
            if step.communicates:
                run_comm += 1
                assert run_comm <= 1
            previous_name = step.source.name
        else:
            run_comm = 0
            previous_name = None


@given(matrix_programs(), workers_strategy)
def test_plan_is_deterministic(program, workers):
    first = DMacPlanner(program, workers).plan()
    second = DMacPlanner(program, workers).plan()
    assert [str(s) for s in first.steps] == [str(s) for s in second.steps]
    assert first.predicted_bytes == second.predicted_bytes


@given(matrix_programs(), workers_strategy)
def test_every_operator_planned_exactly_once(program, workers):
    plan = DMacPlanner(program, workers).plan()
    planned = Counter()
    for step in plan.steps:
        if isinstance(
            step,
            (SourceStep, MatMulStep, CellwiseStep, ScalarMatrixStep, UnaryStep,
             RowAggStep, AggregateStep),
        ):
            planned[step.op.output] += 1
    for op in program.ops:
        if isinstance(
            op,
            (MatMulOp, CellwiseOp, ScalarMatrixOp, UnaryMatrixOp, RowAggOp, AggregateOp),
        ):
            assert planned[op.output] == 1, op


@given(matrix_programs(), workers_strategy)
def test_predicted_bytes_decomposes_over_comm_steps(program, workers):
    plan = DMacPlanner(program, workers).plan()
    estimator = SizeEstimator(program)
    total = 0
    for step in plan.steps:
        if isinstance(step, ExtendedStep) and step.communicates:
            nbytes = estimator.nbytes(step.source.name)
            total += (workers - 1) * nbytes if step.kind == "broadcast" else nbytes
        elif isinstance(step, (MatMulStep, RowAggStep)) and step.communicates:
            total += (workers - 1) * estimator.nbytes(step.output.name)
    assert total == plan.predicted_bytes


@given(matrix_programs(with_inputs=True))
def test_single_worker_plans_predict_nothing_physical(drawn):
    """On one worker the physical run moves zero bytes regardless of what
    the (worker-count-agnostic) cost model predicted."""
    from repro.config import ClusterConfig
    from repro.rdd.context import ClusterContext
    from repro.runtime.executor import PlanExecutor

    program, inputs = drawn
    plan = DMacPlanner(program, 1).plan()
    ctx = ClusterContext(ClusterConfig(num_workers=1, block_size=3))
    result = PlanExecutor(ctx, 3).execute(plan, inputs)
    assert result.comm_bytes == 0
