"""Stage scheduling: splitting a plan into communication-free stages.

The paper (Section 5.2) finds stage boundaries by traversing the plan along
its matrix dependencies and cutting wherever a communicating dependency
(``partition`` or ``broadcast`` operator -- and, in effect, CPMM's
aggregation shuffle) is crossed.  We implement the equivalent forward
formulation: every matrix instance is labelled with the stage in which it
becomes available; a communicating step consumes its input in stage ``s``
and makes its output available in stage ``s + 1``, while every
communication-free step stays inside its inputs' stage.  Within a stage no
bytes move, so each stage "can be perfectly dispatched to the nodes in the
cluster and executed independently".

Driver scalars (aggregations and scalar arithmetic) do not cut stages: the
handful of bytes they move travel with stage scheduling messages.

The traversal is generic over the step accessors (``inputs``,
``scalar_inputs``, ``output_instance``, ``scalar_output``); unknown step
kinds are rejected against the operator registry
(:mod:`repro.runtime.registry`) rather than an enumeration here.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.plan import MatrixInstance, Plan, Step
from repro.errors import PlanError
from repro.runtime.registry import spec_for


def schedule_stages(plan: Plan) -> Plan:
    """Annotate every step with its stage number and set ``plan.num_stages``.

    Idempotent; returns the same plan object for chaining.
    """
    stages = step_stages(plan.steps)
    for step, stage in zip(plan.steps, stages):
        step.stage = stage
    plan.num_stages = max(stages, default=1)
    return plan


def step_stages(steps: Iterable[Step]) -> list[int]:
    """The stage each of a topologically ordered step list runs in, in
    order; the steps are not annotated."""
    node_stage: dict[MatrixInstance, int] = {}
    scalar_stage: dict[str, int] = {}
    stages: list[int] = []
    for step in steps:
        spec_for(step)  # PlanError on unregistered step kinds
        base = 1
        for instance in step.inputs():
            base = max(base, _input_stage(node_stage, instance))
        for name in step.scalar_inputs():
            base = max(base, scalar_stage.get(name, 1))
        stages.append(base)
        output = step.output_instance()
        if output is not None:
            node_stage[output] = base + 1 if step.communicates else base
        scalar = step.scalar_output()
        if scalar is not None:
            scalar_stage[scalar] = base
    return stages


def _input_stage(node_stage: dict[MatrixInstance, int], instance: MatrixInstance) -> int:
    if instance not in node_stage:
        raise PlanError(f"step consumes {instance} before it is produced")
    return node_stage[instance]

