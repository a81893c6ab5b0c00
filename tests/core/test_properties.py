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
from repro.rdd.context import ClusterContext
from repro.runtime.executor import PlanExecutor
from repro.runtime.graph import StageGraph

from tests.program_strategy import matrix_programs


def cluster(workers=4):
    return ClusterContext(ClusterConfig(num_workers=workers, block_size=3))


def run_dmac(program, inputs, workers=4):
    plan = schedule_stages(DMacPlanner(program, workers).plan())
    return plan, PlanExecutor(cluster(workers), 3).execute(plan, inputs)


def assert_matches_numpy(program, inputs, result):
    reference = run_local(program, inputs)
    for name in program.outputs:
        np.testing.assert_allclose(result.matrices[name], reference.matrices[name], atol=1e-8)


@given(matrix_programs(with_inputs=True), st.integers(1, 5))
def test_dmac_execution_matches_numpy(program_and_inputs, workers):
    program, inputs = program_and_inputs
    plan, result = run_dmac(program, inputs, workers)
    assert not list(StageGraph.from_plan(plan).stage_violations())
    assert_matches_numpy(program, inputs, result)


@given(matrix_programs(with_inputs=True))
def test_systemml_execution_matches_numpy(program_and_inputs):
    program, inputs = program_and_inputs
    assert_matches_numpy(program, inputs, SystemMLSExecutor(cluster(), 3).execute(program, inputs))


@given(matrix_programs(with_inputs=True))
def test_measured_traffic_never_exceeds_prediction(program_and_inputs):
    plan, result = run_dmac(*program_and_inputs)
    # worst-case sizes + whole-matrix moves upper-bound physical traffic;
    # allow record-framing slack
    assert result.comm_bytes <= plan.predicted_bytes * 1.5 + 8192


@given(matrix_programs(with_inputs=True))
def test_estimator_is_worst_case(program_and_inputs):
    program, inputs = program_and_inputs
    estimator = SizeEstimator(program)
    reference = run_local(program, inputs)
    for name, array in reference.matrices.items():
        true_sparsity = np.count_nonzero(array) / array.size
        assert true_sparsity <= estimator.sparsity(name) + 1e-12


@given(matrix_programs(with_inputs=True))
def test_dmac_never_predicts_more_than_systemml_measures(program_and_inputs):
    """Dependency information can only remove communication."""
    program, inputs = program_and_inputs
    __, dmac = run_dmac(program, inputs)
    systemml = SystemMLSExecutor(cluster(), 3).execute(program, inputs)
    assert dmac.comm_bytes <= systemml.comm_bytes + 4096
