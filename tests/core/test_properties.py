"""Property-based tests over the whole planning + execution pipeline.

The key invariant: for *any* matrix program, executing the DMac plan on the
simulated cluster produces exactly what numpy produces -- regardless of the
strategies, dependencies and repartitions the planner chose.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.rlocal import run_local
from repro.baselines.systemml import SystemMLSExecutor
from repro.config import ClusterConfig
from repro.core.estimator import SizeEstimator
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.lang.program import ProgramBuilder
from repro.rdd.context import ClusterContext
from repro.runtime.executor import PlanExecutor
from repro.runtime.graph import StageGraph


@st.composite
def random_programs(draw):
    """A random straight-line matrix program plus matching input arrays.

    Starts from a few loads of compatible shapes and composes a chain of
    random operations (matmul / cellwise / scalar / transpose), keeping a
    pool of live expressions keyed by shape.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(2, 10))
    n = draw(st.integers(2, 10))
    pb = ProgramBuilder()
    inputs = {}
    pool = []  # (handle, shape)

    for index in range(draw(st.integers(1, 3))):
        name = f"I{index}"
        density = draw(st.sampled_from([0.2, 0.6, 1.0]))
        array = rng.random((m, n))
        array[rng.random((m, n)) > density] = 0.0
        # Declare the *measured* sparsity: the paper's estimator assumes the
        # input sparsity is pre-computed offline (Section 5.1).
        measured = np.count_nonzero(array) / array.size
        handle = pb.load(name, (m, n), sparsity=measured)
        inputs[name] = array
        pool.append((handle, (m, n)))

    steps = draw(st.integers(1, 6))
    counter = 0
    for __ in range(steps):
        kind = draw(st.sampled_from(["matmul", "cellwise", "scalar", "transpose_mix"]))
        left, lshape = pool[draw(st.integers(0, len(pool) - 1))]
        counter += 1
        name = f"X{counter}"
        if kind == "matmul":
            right, rshape = pool[draw(st.integers(0, len(pool) - 1))]
            # left @ right.T is always shape-compatible when cols match
            if lshape[1] == rshape[1]:
                out = pb.assign(name, left @ right.T)
                pool.append((out, (lshape[0], rshape[0])))
            else:
                out = pb.assign(name, left.T @ left)
                pool.append((out, (lshape[1], lshape[1])))
        elif kind == "cellwise":
            candidates = [(h, s) for h, s in pool if s == lshape]
            right, __ = candidates[draw(st.integers(0, len(candidates) - 1))]
            op = draw(st.sampled_from(["add", "subtract", "multiply"]))
            expr = {"add": left + right, "subtract": left - right, "multiply": left * right}[op]
            out = pb.assign(name, expr)
            pool.append((out, lshape))
        elif kind == "scalar":
            factor = draw(st.floats(min_value=-2, max_value=2, allow_nan=False))
            out = pb.assign(name, left * factor)
            pool.append((out, lshape))
        else:  # transpose_mix: T @ self
            out = pb.assign(name, left.T @ left)
            pool.append((out, (lshape[1], lshape[1])))

    handle, __ = pool[-1]
    pb.output(handle)
    return pb.build(), inputs


@given(random_programs(), st.integers(1, 5))
def test_dmac_execution_matches_numpy(program_and_inputs, workers):
    program, inputs = program_and_inputs
    plan = schedule_stages(DMacPlanner(program, workers).plan())
    assert not list(StageGraph.from_plan(plan).stage_violations())
    ctx = ClusterContext(ClusterConfig(num_workers=workers, block_size=3))
    result = PlanExecutor(ctx, 3).execute(plan, inputs)
    reference = run_local(program, inputs)
    for name in program.outputs:
        np.testing.assert_allclose(
            result.matrices[name], reference.matrices[name], atol=1e-8
        )


@given(random_programs())
def test_systemml_execution_matches_numpy(program_and_inputs):
    program, inputs = program_and_inputs
    ctx = ClusterContext(ClusterConfig(num_workers=4, block_size=3))
    result = SystemMLSExecutor(ctx, 3).execute(program, inputs)
    reference = run_local(program, inputs)
    for name in program.outputs:
        np.testing.assert_allclose(
            result.matrices[name], reference.matrices[name], atol=1e-8
        )


@given(random_programs())
def test_measured_traffic_never_exceeds_prediction(program_and_inputs):
    program, inputs = program_and_inputs
    plan = schedule_stages(DMacPlanner(program, 4).plan())
    ctx = ClusterContext(ClusterConfig(num_workers=4, block_size=3))
    result = PlanExecutor(ctx, 3).execute(plan, inputs)
    # worst-case sizes + whole-matrix moves upper-bound physical traffic;
    # allow record-framing slack
    assert result.comm_bytes <= plan.predicted_bytes * 1.5 + 8192


@given(random_programs())
def test_estimator_is_worst_case(program_and_inputs):
    program, inputs = program_and_inputs
    estimator = SizeEstimator(program)
    reference = run_local(program, inputs)
    for name, array in reference.matrices.items():
        true_sparsity = np.count_nonzero(array) / array.size
        assert true_sparsity <= estimator.sparsity(name) + 1e-12


@given(random_programs())
def test_dmac_never_predicts_more_than_systemml_measures(program_and_inputs):
    """Dependency information can only remove communication."""
    program, inputs = program_and_inputs
    plan = schedule_stages(DMacPlanner(program, 4).plan())
    ctx = ClusterContext(ClusterConfig(num_workers=4, block_size=3))
    dmac = PlanExecutor(ctx, 3).execute(plan, inputs)
    ctx2 = ClusterContext(ClusterConfig(num_workers=4, block_size=3))
    systemml = SystemMLSExecutor(ctx2, 3).execute(program, inputs)
    assert dmac.comm_bytes <= systemml.comm_bytes + 4096
