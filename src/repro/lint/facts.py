"""Abstract interpretation of a plan DAG: shapes, schemes, sizes, stages.

The rules in :mod:`repro.lint.rules` never execute a plan; everything they
check is derived here by one forward pass over the step list:

* **shapes** -- every matrix instance's (rows, cols), propagated through
  the extended operators (transpose swaps, the rest preserve) and the
  compute operators (matmul composes, cell-wise requires equality), and
  independently cross-checked against the program's declared dimensions;
  the transfer functions themselves live in the operator registry
  (:mod:`repro.runtime.registry`), shared with the executor and planner;
* **sizes** -- the worst-case byte estimate ``|A|`` of Section 5.1, via
  the :class:`~repro.core.cost.CostModel` the planner itself prices with,
  so the lint and the cost model can never disagree about what a matrix
  weighs or a step ships;
* **dataflow** -- producer step and consumer steps per instance, plus
  scalar producers/consumers, for liveness (dead-operator) analysis;
* **stages** -- the stage each instance becomes *available* in, following
  the Section 5.2 convention that a communicating step publishes its
  output one stage after it runs.

Interpretation is total: a malformed plan (an instance consumed before any
step produced it, say) does not crash the pass -- the anomaly is recorded
in ``unproduced`` and the affected facts are simply absent, leaving the
rules to report precise diagnostics.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from repro.core.cost import CostModel
from repro.core.plan import MatrixInstance, Plan, Step
from repro.errors import PlanError
from repro.runtime.registry import OPERATORS

Shape = tuple[int, int]


@dataclasses.dataclass
class PlanFacts:
    """Everything the static rules know about one plan."""

    plan: Plan
    cost: CostModel
    #: interpreted shape per instance (absent if inputs were unknown)
    shapes: dict[MatrixInstance, Shape]
    #: index of the step that produced each instance (first producer wins)
    producer: dict[MatrixInstance, int]
    #: indices of the steps that consume each instance
    consumers: dict[MatrixInstance, list[int]]
    #: stage in which each instance becomes available (Section 5.2)
    available_stage: dict[MatrixInstance, int]
    #: step index that produced each driver scalar
    scalar_producer: dict[str, int]
    #: step indices consuming each driver scalar
    scalar_consumers: dict[str, list[int]]
    #: (step index, instance) pairs consumed before any producer ran
    unproduced: list[tuple[int, MatrixInstance]]

    def nbytes(self, name: str) -> int:
        """Estimated ``|A|``; 0 for names the program does not know (the
        shape rule reports those -- size-based rules stay quiet)."""
        try:
            return self.cost.estimator.nbytes(name)
        except PlanError:
            return 0

    def declared_shape(self, instance: MatrixInstance) -> Shape | None:
        """The program-declared shape of an instance (transpose-adjusted)."""
        dims = self.plan.program.dims.get(instance.name)
        if dims is None:
            return None
        rows, cols = dims
        return (cols, rows) if instance.transposed else (rows, cols)


def step_output(step: Step) -> MatrixInstance | None:
    """The matrix instance a step produces, if any."""
    return step.output_instance()


def build_facts(
    plan: Plan, estimation_mode: str = "worst", num_workers: int = 4
) -> PlanFacts:
    """One forward pass computing :class:`PlanFacts` for a plan (sized and
    priced as for :class:`~repro.lint.diagnostics.LintContext`'s cluster)."""
    cost = CostModel(plan.program, num_workers, estimation_mode)
    shapes: dict[MatrixInstance, Shape] = {}
    producer: dict[MatrixInstance, int] = {}
    consumers: dict[MatrixInstance, list[int]] = defaultdict(list)
    available: dict[MatrixInstance, int] = {}
    scalar_producer: dict[str, int] = {}
    scalar_consumers: dict[str, list[int]] = defaultdict(list)
    unproduced: list[tuple[int, MatrixInstance]] = []

    for index, step in enumerate(plan.steps):
        for instance in step.inputs():
            consumers[instance].append(index)
            if instance not in producer:
                unproduced.append((index, instance))
        for name in step.scalar_inputs():
            scalar_consumers[name].append(index)

        output = step.output_instance()
        if output is not None:
            producer.setdefault(output, index)
            available.setdefault(
                output, step.stage + (1 if step.communicates else 0)
            )
            shape = _interpret_shape(step, shapes)
            if shape is not None:
                shapes[output] = shape
        else:
            scalar = step.scalar_output()
            if scalar is not None:
                scalar_producer.setdefault(scalar, index)

    return PlanFacts(
        plan=plan,
        cost=cost,
        shapes=shapes,
        producer=producer,
        consumers=dict(consumers),
        available_stage=available,
        scalar_producer=scalar_producer,
        scalar_consumers=dict(scalar_consumers),
        unproduced=unproduced,
    )


def _interpret_shape(
    step: Step, shapes: dict[MatrixInstance, Shape]
) -> Shape | None:
    """Abstract shape transfer function of one step; ``None`` when an input
    shape is unknown (the anomaly is reported elsewhere).  Dispatches to
    the operator registry's per-kind ``shape_rule``."""
    spec = OPERATORS.get(type(step))
    if spec is None:
        return None
    return spec.shape_rule(step, shapes)
