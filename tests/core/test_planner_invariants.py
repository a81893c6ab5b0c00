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
    ProgramBuilder,
    RowAggOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)


@st.composite
def programs(draw):
    """Random programs exercising every operator class."""
    pb = ProgramBuilder()
    m = draw(st.integers(2, 8))
    n = draw(st.integers(2, 8))
    a = pb.load("A", (m, n), sparsity=draw(st.sampled_from([0.1, 0.5, 1.0])))
    b = pb.load("B", (m, n))
    pool = [(a, (m, n)), (b, (m, n))]
    for index in range(draw(st.integers(1, 6))):
        kind = draw(
            st.sampled_from(["gram", "cell", "scalar", "unary", "rowsum", "agg"])
        )
        handle, shape = pool[draw(st.integers(0, len(pool) - 1))]
        name = f"X{index}"
        if kind == "gram":
            out = pb.assign(name, handle.T @ handle)
            pool.append((out, (shape[1], shape[1])))
        elif kind == "cell":
            peers = [(h, s) for h, s in pool if s == shape]
            other, __ = peers[draw(st.integers(0, len(peers) - 1))]
            out = pb.assign(name, handle * other)
            pool.append((out, shape))
        elif kind == "scalar":
            out = pb.assign(name, handle * draw(st.floats(-2, 2, allow_nan=False)))
            pool.append((out, shape))
        elif kind == "unary":
            func = draw(st.sampled_from(["abs", "sigmoid", "exp"]))
            from repro.lang.expr import UnaryExpr

            out = pb.assign(name, UnaryExpr(func, handle))
            pool.append((out, shape))
        elif kind == "rowsum":
            out = pb.assign(name, handle.row_sums())
            pool.append((out, (shape[0], 1)))
        else:
            pb.scalar(f"s{index}", handle.sum())
    pb.output(pool[-1][0])
    return pb.build()


workers_strategy = st.integers(1, 6)


@given(programs(), workers_strategy)
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


@given(programs(), workers_strategy)
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


@given(programs(), workers_strategy)
def test_plan_is_deterministic(program, workers):
    first = DMacPlanner(program, workers).plan()
    second = DMacPlanner(program, workers).plan()
    assert [str(s) for s in first.steps] == [str(s) for s in second.steps]
    assert first.predicted_bytes == second.predicted_bytes


@given(programs(), workers_strategy)
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


@given(programs(), workers_strategy)
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


@given(programs())
def test_single_worker_plans_predict_nothing_physical(program):
    """On one worker the physical run moves zero bytes regardless of what
    the (worker-count-agnostic) cost model predicted."""
    import numpy as np

    from repro.config import ClusterConfig
    from repro.rdd.context import ClusterContext
    from repro.runtime.executor import PlanExecutor

    plan = DMacPlanner(program, 1).plan()
    ctx = ClusterContext(ClusterConfig(num_workers=1, block_size=3))
    rng = np.random.default_rng(0)
    inputs = {
        name: rng.random(program.dims[name])
        for name in program.input_sparsity
    }
    result = PlanExecutor(ctx, 3).execute(plan, inputs)
    assert result.comm_bytes == 0
