"""DMac's core: dependency analysis, cost model, plan generation, execution.

This package is the paper's contribution: the dependency classifier
(Table 2), the worst-case size estimator (Section 5.1), the strategy
catalog (Figure 2), the dependency-oriented cost model (Section 4.1), the
plan generator with its two heuristics (Algorithm 1, Section 4.2), the
stage scheduler (Section 5.2) and the plan executor.
"""

from repro.core.analysis import PlanStatistics, explain, format_statistics
from repro.core.cost import dependency_cost, output_cost
from repro.core.dependency import (
    BROADCAST_DEPENDENCIES,
    COMMUNICATION_DEPENDENCIES,
    DependencyType,
    classify,
    is_communication,
    lowering_chain,
)
from repro.core.estimator import SizeEstimator
from repro.core.events import InputEvent, OutputEvent, precedes
from repro.core.optimal import free_closure, optimal_cost, paper_cost_of_plan
from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    ScalarComputeStep,
    ScalarMatrixStep,
    SourceStep,
    Step,
    UnaryStep,
)
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.core.viz import plan_to_dot
from repro.core.strategies import (
    AGGREGATE_STRATEGIES,
    CELLWISE_STRATEGIES,
    CPMM,
    MATMUL_STRATEGIES,
    RMM1,
    RMM2,
    SCALAR_STRATEGIES,
    SOURCE_STRATEGY,
    Strategy,
    candidate_strategies,
)
from repro.runtime.executor import ExecutionResult, PlanExecutor, StepTrace, evaluate_scalar

__all__ = [
    "AGGREGATE_STRATEGIES",
    "AggregateStep",
    "BROADCAST_DEPENDENCIES",
    "CELLWISE_STRATEGIES",
    "COMMUNICATION_DEPENDENCIES",
    "CPMM",
    "CellwiseStep",
    "DMacPlanner",
    "DependencyType",
    "ExecutionResult",
    "ExtendedStep",
    "InputEvent",
    "MATMUL_STRATEGIES",
    "MatMulStep",
    "MatrixInstance",
    "OutputEvent",
    "Plan",
    "PlanStatistics",
    "RowAggStep",
    "PlanExecutor",
    "RMM1",
    "RMM2",
    "SCALAR_STRATEGIES",
    "SOURCE_STRATEGY",
    "ScalarComputeStep",
    "ScalarMatrixStep",
    "SizeEstimator",
    "SourceStep",
    "StepTrace",
    "Step",
    "StepTrace",
    "Strategy",
    "UnaryStep",
    "candidate_strategies",
    "classify",
    "dependency_cost",
    "evaluate_scalar",
    "explain",
    "format_statistics",
    "free_closure",
    "is_communication",
    "lowering_chain",
    "optimal_cost",
    "output_cost",
    "paper_cost_of_plan",
    "plan_to_dot",
    "precedes",
    "schedule_stages",
]
