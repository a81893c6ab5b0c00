"""The operator registry: one table describing every plan-step kind.

Before this table existed, four modules each carried their own
isinstance-dispatch chain over the step kinds -- the executor (physical
kernels), the planner (lang-operator lowering), the lint's abstract
interpreter (shape transfer functions) and the plan visualiser (edge
labels).  Adding an operator meant editing four switches that could drift
apart silently.  Each :class:`OperatorSpec` now bundles those four facets
for one step kind:

* ``kernel``     -- runs the step against an execution state (used by
  :mod:`repro.runtime.executor`),
* ``op_types``   -- the :mod:`repro.lang.program` operator classes the
  planner lowers into this step, plus ``plan_hook``, the name of the
  :class:`~repro.core.planner.DMacPlanner` method that does it,
* ``shape_rule`` -- the abstract shape transfer function (driven by
  :func:`repro.verify.analysis.solve_shapes` alone; the lint reads its facts),
* ``edge_label`` -- how the step is drawn (used by :mod:`repro.core.viz`).

Kernels make every physical call through the execution state's
``backend`` (a :class:`~repro.runtime.backend.SimulatedBackend` unless the
executor was given a wrapper), so a wrapper sees each one.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    FusedCellwiseStep,
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
from repro.errors import ExecutionError, PlanError
from repro.lang.program import (
    AggregateOp,
    CellwiseOp,
    FullOp,
    LoadOp,
    MatMulOp,
    RandomOp,
    RowAggOp,
    ScalarComputeOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)
from repro.runtime.scalars import evaluate_scalar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import ExecutionState

Shape = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class OperatorSpec:
    """Everything the system knows about one plan-step kind."""

    name: str  # stable kind name, e.g. "matmul"
    step_type: type[Step]
    op_types: tuple[type, ...]  # lang operators lowered into this step
    plan_hook: str  # DMacPlanner method that lowers them
    kernel: Callable[[Step, "ExecutionState"], None]
    shape_rule: Callable[[Step, dict[MatrixInstance, Shape]], Optional[Shape]]
    edge_label: Callable[[Step], str]


# ---------------------------------------------------------------------------
# Physical kernels.  Each consumes its inputs from the execution state's
# resource manager and publishes its output back; scheme guards mirror the
# old executor's defensive checks.
# ---------------------------------------------------------------------------


def _run_source(step: SourceStep, state: "ExecutionState") -> None:
    matrix = state.backend.materialise_source(
        step.op, step.output.scheme, state.block_size, state.inputs
    )
    state.record_cut(step.output, matrix)
    state.resources.publish(step.output, matrix)


def _run_extended(step: ExtendedStep, state: "ExecutionState") -> None:
    source = state.resources.get(step.source)
    result = state.backend.extended(step.kind, source, step.target.scheme)
    if result.scheme is not step.target.scheme:  # pragma: no cover - guard
        raise ExecutionError(
            f"{step.kind} produced {result.scheme}, plan expected {step.target}"
        )
    state.resources.publish(step.target, result)


def _run_matmul(step: MatMulStep, state: "ExecutionState") -> None:
    left = state.resources.get(step.left)
    right = state.resources.get(step.right)
    result = state.backend.matmul(step.strategy, left, right, step.output.scheme)
    state.resources.publish(step.output, result)


def _run_cellwise(step: CellwiseStep, state: "ExecutionState") -> None:
    left = state.resources.get(step.left)
    right = state.resources.get(step.right)
    state.resources.publish(step.output, state.backend.cellwise(step.op.op, left, right))


def _run_fused_cellwise(step: FusedCellwiseStep, state: "ExecutionState") -> None:
    from repro.localexec.fused import lower_chain

    chain, external = lower_chain(step)
    operands = tuple(state.resources.get(instance) for instance in external)
    state.resources.publish(step.output, state.backend.fused_cellwise(chain, operands))


def _run_scalar_matrix(step: ScalarMatrixStep, state: "ExecutionState") -> None:
    source = state.resources.get(step.source)
    scalar = step.op.scalar
    value = state.get_scalar(scalar) if isinstance(scalar, str) else float(scalar)
    state.resources.publish(step.output, state.backend.scalar_op(step.op.op, source, value))


def _run_unary(step: UnaryStep, state: "ExecutionState") -> None:
    source = state.resources.get(step.source)
    state.resources.publish(step.output, state.backend.unary(step.op.func, source))


def _run_row_agg(step: RowAggStep, state: "ExecutionState") -> None:
    source = state.resources.get(step.source)
    result = state.backend.row_agg(
        step.op.kind, source, step.output.scheme, step.communicates
    )
    if result.scheme is not step.output.scheme:  # pragma: no cover - guard
        raise ExecutionError(
            f"{step.op.kind} produced {result.scheme}, plan expected {step.output}"
        )
    state.resources.publish(step.output, result)


def _run_aggregate(step: AggregateStep, state: "ExecutionState") -> None:
    source = state.resources.get(step.source)
    state.set_scalar(step.op.output, state.backend.aggregate(step.op.kind, source))


def _run_scalar_compute(step: ScalarComputeStep, state: "ExecutionState") -> None:
    state.set_scalar(step.op.output, evaluate_scalar(step.op.expr, state.scalars_snapshot()))


# ---------------------------------------------------------------------------
# Abstract shape transfer functions (for ``solve_shapes``).  ``None``
# means an input shape was unknown; the anomaly is reported elsewhere.
# ---------------------------------------------------------------------------


def _shape_source(step: SourceStep, shapes: dict) -> Optional[Shape]:
    return (step.op.rows, step.op.cols)


def _shape_extended(step: ExtendedStep, shapes: dict) -> Optional[Shape]:
    source = shapes.get(step.source)
    if source is None:
        return None
    if step.kind == "transpose":
        return (source[1], source[0])
    return source


def _shape_matmul(step: MatMulStep, shapes: dict) -> Optional[Shape]:
    left, right = shapes.get(step.left), shapes.get(step.right)
    if left is None or right is None:
        return None
    # An inner mismatch still yields the output shape the step intends;
    # the shape rule reports the mismatch itself.
    return (left[0], right[1])


def _shape_cellwise(step: CellwiseStep, shapes: dict) -> Optional[Shape]:
    return shapes.get(step.left) or shapes.get(step.right)


def _shape_fused_cellwise(step: FusedCellwiseStep, shapes: dict) -> Optional[Shape]:
    for instance in step.inputs():
        shape = shapes.get(instance)
        if shape is not None:
            return shape
    return None


def _shape_from_source(step, shapes: dict) -> Optional[Shape]:
    return shapes.get(step.source)


def _shape_row_agg(step: RowAggStep, shapes: dict) -> Optional[Shape]:
    source = shapes.get(step.source)
    if source is None:
        return None
    return (source[0], 1) if step.op.kind == "rowsum" else (1, source[1])


def _shape_none(step, shapes: dict) -> Optional[Shape]:
    return None


# ---------------------------------------------------------------------------
# The table itself.
# ---------------------------------------------------------------------------

_SPECS = (
    OperatorSpec(
        name="source",
        step_type=SourceStep,
        op_types=(LoadOp, RandomOp, FullOp),
        plan_hook="_plan_source",
        kernel=_run_source,
        shape_rule=_shape_source,
        edge_label=lambda step: type(step.op).__name__.replace("Op", "").lower(),
    ),
    OperatorSpec(
        name="extended",
        step_type=ExtendedStep,
        op_types=(),  # emitted by dependency lowering, not by a lang operator
        plan_hook="",
        kernel=_run_extended,
        shape_rule=_shape_extended,
        edge_label=lambda step: step.kind,
    ),
    OperatorSpec(
        name="matmul",
        step_type=MatMulStep,
        op_types=(MatMulOp,),
        plan_hook="_plan_matmul",
        kernel=_run_matmul,
        shape_rule=_shape_matmul,
        edge_label=lambda step: step.strategy,
    ),
    OperatorSpec(
        name="cellwise",
        step_type=CellwiseStep,
        op_types=(CellwiseOp,),
        plan_hook="_plan_cellwise",
        kernel=_run_cellwise,
        shape_rule=_shape_cellwise,
        edge_label=lambda step: step.op.op,
    ),
    OperatorSpec(
        name="fused-cellwise",
        step_type=FusedCellwiseStep,
        op_types=(),  # emitted by the optimizer's fusion pass, not the planner
        plan_hook="",
        kernel=_run_fused_cellwise,
        shape_rule=_shape_fused_cellwise,
        edge_label=lambda step: "fused:" + ",".join(step.ops),
    ),
    OperatorSpec(
        name="scalar-matrix",
        step_type=ScalarMatrixStep,
        op_types=(ScalarMatrixOp,),
        plan_hook="_plan_scalar_matrix",
        kernel=_run_scalar_matrix,
        shape_rule=_shape_from_source,
        edge_label=lambda step: f"{step.op.op} scalar",
    ),
    OperatorSpec(
        name="unary",
        step_type=UnaryStep,
        op_types=(UnaryMatrixOp,),
        plan_hook="_plan_unary",
        kernel=_run_unary,
        shape_rule=_shape_from_source,
        edge_label=lambda step: step.op.func,
    ),
    OperatorSpec(
        name="row-agg",
        step_type=RowAggStep,
        op_types=(RowAggOp,),
        plan_hook="_plan_row_agg",
        kernel=_run_row_agg,
        shape_rule=_shape_row_agg,
        edge_label=lambda step: step.op.kind,
    ),
    OperatorSpec(
        name="aggregate",
        step_type=AggregateStep,
        op_types=(AggregateOp,),
        plan_hook="_plan_aggregate",
        kernel=_run_aggregate,
        shape_rule=_shape_none,
        edge_label=lambda step: step.op.kind,
    ),
    OperatorSpec(
        name="scalar-compute",
        step_type=ScalarComputeStep,
        op_types=(ScalarComputeOp,),
        plan_hook="_plan_scalar_compute",
        kernel=_run_scalar_compute,
        shape_rule=_shape_none,
        edge_label=lambda step: "",
    ),
)

#: Step type -> spec (the executor/lint/viz lookup).
OPERATORS: dict[type[Step], OperatorSpec] = {spec.step_type: spec for spec in _SPECS}

#: Lang operator type -> spec (the planner lookup).
OPERATORS_BY_OP: dict[type, OperatorSpec] = {
    op_type: spec for spec in _SPECS for op_type in spec.op_types
}


def spec_for(step: Step) -> OperatorSpec:
    """The registered spec for a plan step; :class:`PlanError` if unknown."""
    spec = OPERATORS.get(type(step))
    if spec is None:
        raise PlanError(f"scheduler: unknown step {type(step).__name__}")
    return spec


def spec_for_op(op: object) -> OperatorSpec | None:
    """The spec whose step a lang operator lowers to (``None`` if unknown)."""
    return OPERATORS_BY_OP.get(type(op))


def validate_plan_steps(plan: Plan) -> None:
    """Fail fast (``PlanError``) when a plan carries an unregistered step."""
    for step in plan.steps:
        spec_for(step)
