"""DMac's core: dependency analysis, cost model, plan generation, execution.

This package is the paper's contribution: the dependency classifier
(Table 2), the worst-case size estimator (Section 5.1), the strategy
catalog (Figure 2), the dependency-oriented cost model (Section 4.1), the
plan generator with its two heuristics (Algorithm 1, Section 4.2), the
stage scheduler (Section 5.2) and the plan executor.
"""

from repro._exports import export_table

_EXPORTS = {
    "PlanStatistics": "repro.core.analysis",
    "explain": "repro.core.analysis",
    "format_statistics": "repro.core.analysis",
    "dependency_cost": "repro.core.cost",
    "output_cost": "repro.core.cost",
    "BROADCAST_DEPENDENCIES": "repro.core.dependency",
    "COMMUNICATION_DEPENDENCIES": "repro.core.dependency",
    "DependencyType": "repro.core.dependency",
    "classify": "repro.core.dependency",
    "is_communication": "repro.core.dependency",
    "lowering_chain": "repro.core.dependency",
    "SizeEstimator": "repro.core.estimator",
    "free_closure": "repro.core.optimal",
    "optimal_cost": "repro.core.optimal",
    "paper_cost_of_plan": "repro.core.optimal",
    "AggregateStep": "repro.core.plan",
    "CellwiseStep": "repro.core.plan",
    "ExtendedStep": "repro.core.plan",
    "MatMulStep": "repro.core.plan",
    "MatrixInstance": "repro.core.plan",
    "Plan": "repro.core.plan",
    "RowAggStep": "repro.core.plan",
    "ScalarComputeStep": "repro.core.plan",
    "ScalarMatrixStep": "repro.core.plan",
    "SourceStep": "repro.core.plan",
    "Step": "repro.core.plan",
    "UnaryStep": "repro.core.plan",
    "DMacPlanner": "repro.core.planner",
    "schedule_stages": "repro.core.stages",
    "plan_to_dot": "repro.core.viz",
    "AGGREGATE_STRATEGIES": "repro.core.strategies",
    "CELLWISE_STRATEGIES": "repro.core.strategies",
    "CPMM": "repro.core.strategies",
    "MATMUL_STRATEGIES": "repro.core.strategies",
    "RMM1": "repro.core.strategies",
    "RMM2": "repro.core.strategies",
    "SCALAR_STRATEGIES": "repro.core.strategies",
    "SOURCE_STRATEGY": "repro.core.strategies",
    "Strategy": "repro.core.strategies",
    "candidate_strategies": "repro.core.strategies",
    "ExecutionResult": "repro.runtime.executor",
    "PlanExecutor": "repro.runtime.executor",
    "StepTrace": "repro.runtime.executor",
    "evaluate_scalar": "repro.runtime.executor",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
