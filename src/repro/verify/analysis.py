"""The shape analysis over the plan IR.

Transfer functions are *derived from the operator registry*
(:mod:`repro.runtime.registry`): :func:`solve_shapes` calls each spec's own
``shape_rule``, so a newly registered operator is handled at once --
precisely when it has a rule, soundly (unknown) when it has none.  It is
one forward pass over the steps in order: ``(rows, cols)`` per matrix
instance.  Lint rule DM101 and :func:`~repro.verify.certify.certify`'s
shape-agreement obligation read it; everything that *sizes* a matrix reads
the program's declared dimensions instead (through
:class:`~repro.core.cost.CostModel`), which DM101 holds equal to these
facts on any plan that lints.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.plan import MatrixInstance, Plan
from repro.errors import PlanError
from repro.runtime.registry import OPERATORS, Shape


def solve_shapes(plan: Plan) -> Dict[MatrixInstance, Shape]:
    """Instance -> ``(rows, cols)``, for every instance whose shape is known.

    A step's rule sees the facts of its inputs known *so far*, so a read
    before its producer learns nothing.  An instance is unknown for good
    once its step is unregistered, its rule raises
    :class:`~repro.errors.PlanError`, or two of its producers disagree."""
    shapes: Dict[MatrixInstance, Shape] = {}
    unknown: Set[MatrixInstance] = set()
    for step in plan.steps:
        output = step.output_instance()
        if output is None or output in unknown:
            continue
        spec = OPERATORS.get(type(step))
        try:
            # Feed the rule only the facts of what the step reads.
            shape = None if spec is None else spec.shape_rule(
                step, {i: shapes[i] for i in step.inputs() if i in shapes}
            )
        except PlanError:
            spec = None
        # Unregistered, rejected by its rule, or a second producer disagrees.
        if spec is None or (shape is not None and shapes.setdefault(output, shape) != shape):
            unknown.add(output)
            shapes.pop(output, None)
    return shapes
