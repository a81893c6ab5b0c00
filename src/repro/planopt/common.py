"""Shared infrastructure for the plan-optimizer passes.

Passes rewrite a :class:`~repro.core.plan.Plan` *in place on a clone* --
:func:`clone_plan` shallow-copies every step (instances are frozen, so
sharing them is safe) and the original plan is never mutated.  The
structural questions every pass asks -- who produces an instance, who
consumes it, what is a valid topological order -- are answered by
:class:`~repro.planopt.index.PlanIndex`; the helpers of those names here
are one-shot views of it.  What a rewritten plan is predicted to ship is
priced by :class:`repro.core.cost.CostModel`, like every other plan.
"""

from __future__ import annotations

import dataclasses

from repro.core.plan import MatrixInstance, Plan, Step
from repro.planopt.index import PlanIndex, copy_step


@dataclasses.dataclass(frozen=True)
class AppliedRewrite:
    """One optimizer rewrite, for the ``--show-rewrites`` audit trail."""

    pass_name: str
    description: str
    removed: tuple[str, ...] = ()  # human-readable steps deleted/merged away
    added: tuple[str, ...] = ()  # steps or pins introduced

    def format_human(self) -> str:
        lines = [f"[{self.pass_name}] {self.description}"]
        lines.extend(f"  - {step}" for step in self.removed)
        lines.extend(f"  + {step}" for step in self.added)
        return "\n".join(lines)


def clone_plan(plan: Plan) -> Plan:
    """A mutation-safe copy: fresh step objects, shared frozen instances."""
    return dataclasses.replace(
        plan,
        steps=[copy_step(step) for step in plan.steps],
        outputs=dict(plan.outputs),
        num_stages=0,
    )


def producer_map(plan: Plan) -> dict[MatrixInstance, Step]:
    """Instance -> the step that materialises it (the last one in step
    order, should several); a one-shot view of :class:`PlanIndex`."""
    return PlanIndex(plan).producer_map()


def consumer_map(plan: Plan) -> dict[MatrixInstance, list[Step]]:
    """Instance -> every step that reads it (one entry per reading step)."""
    return PlanIndex(plan).consumer_map()


def toposort_steps(plan: Plan) -> None:
    """Re-order ``plan.steps`` into a stable topological order
    (:meth:`PlanIndex.toposorted`); raises :class:`PlanError` on a cycle."""
    plan.steps = PlanIndex(plan).toposorted()


# -- iteration structure ------------------------------------------------------


def version_of(name: str) -> int:
    """The SSA version of a program name (``X@3`` -> 3, unversioned -> 0)."""
    __, sep, version = name.partition("@")
    return int(version) if sep else 0


def epoch_map(plan: Plan) -> dict[MatrixInstance, int]:
    """Instance -> the highest SSA version among its transitive ancestors.

    Epoch 0 instances depend only on loop-invariant data: they are exactly
    the values an unrolled loop recomputes verbatim each iteration (until
    CSE merges them), hence the hoisting pass's pin candidates.
    """
    epochs: dict[MatrixInstance, int] = {}
    scalar_epochs: dict[str, int] = {}
    for step in plan.steps:  # steps are topologically ordered
        epoch = 0
        for instance in step.inputs():
            epoch = max(epoch, version_of(instance.name), epochs.get(instance, 0))
        for name in step.scalar_inputs():
            epoch = max(epoch, version_of(name), scalar_epochs.get(name, 0))
        output = step.output_instance()
        if output is not None:
            epochs[output] = max(epoch, version_of(output.name))
        scalar = step.scalar_output()
        if scalar is not None:
            scalar_epochs[scalar] = max(epoch, version_of(scalar))
    return epochs


def step_version(step: Step) -> int:
    """The highest SSA version named anywhere in a step -- a cheap proxy
    for which unrolled iteration the step belongs to."""
    versions = [version_of(instance.name) for instance in step.inputs()]
    versions.extend(version_of(name) for name in step.scalar_inputs())
    output = step.output_instance()
    if output is not None:
        versions.append(version_of(output.name))
    scalar = step.scalar_output()
    if scalar is not None:
        versions.append(version_of(scalar))
    return max(versions, default=0)
