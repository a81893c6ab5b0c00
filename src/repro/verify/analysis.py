"""The shape analysis over the plan IR.

Transfer functions are *derived from the operator registry*
(:mod:`repro.runtime.registry`): :func:`solve_shapes` calls each spec's own
``shape_rule``, so a newly registered operator is handled at once --
precisely when it has a rule, soundly (TOP) when it has none.  It runs
forward over the flat lattice: ``(rows, cols)`` per matrix instance.  Lint
rule DM101 and :func:`~repro.verify.certify.certify`'s shape-agreement
obligation read it; everything that *sizes* a matrix reads the program's
declared dimensions instead (:func:`declared_shape`), which DM101 holds
equal to these facts on any plan that lints.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.plan import MatrixInstance, Plan, Step
from repro.errors import PlanError
from repro.lang.program import MatrixProgram
from repro.runtime.registry import OPERATORS
from repro.verify.engine import solve
from repro.verify.lattice import TOP, FlatLattice

Shape = Tuple[int, int]


def declared_shape(program: MatrixProgram, instance: MatrixInstance) -> Optional[Shape]:
    """The shape the program declares for an instance (transpose-adjusted);
    ``None`` for a name it does not know."""
    if instance.name not in program.dims:
        return None
    return program.dims_of(instance)


def solve_shapes(plan: Plan) -> Dict[MatrixInstance, object]:
    """Instance -> ``(rows, cols)`` | TOP, via the registry's shape rules."""

    def transfer(
        index: int, step: Step, env: Mapping[MatrixInstance, object]
    ) -> Mapping[MatrixInstance, object]:
        output = step.output_instance()
        if output is None:
            return {}
        spec = OPERATORS.get(type(step))
        if spec is None:  # unregistered operator: soundly unknown
            return {output: TOP}
        # Shape rules index into pairs: feed them only real facts, and only
        # of what the step reads (a copy of the whole env is O(steps^2)).
        concrete: Dict[MatrixInstance, Shape] = {
            i: env[i] for i in step.inputs() if isinstance(env.get(i), tuple)
        }
        try:
            shape = spec.shape_rule(step, concrete)
        except PlanError:
            return {output: TOP}
        return {} if shape is None else {output: shape}

    def reads(index: int, step: Step) -> Iterable[MatrixInstance]:
        return step.inputs()

    return solve(plan.steps, FlatLattice(), transfer, reads)
