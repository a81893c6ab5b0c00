"""Common-subexpression elimination over plan steps.

Two steps are *structurally identical* when they apply the same operator
(same kind, same parameters) to the same input instances and produce their
output under the same layout (transposed flag + scheme).  Unrolled loops
emit such duplicates freely -- PageRank recomputes ``D * (1 - d)/N`` every
iteration -- and the planner's per-operator lowering cannot see across
iterations.  This pass keeps the first occurrence, deletes the rest, and
renames every reference to a deleted step's output (including derived
conversion instances and program outputs) to the kept name.

Renaming can itself create *exact* duplicates (two ``partition`` steps now
converting the same kept instance to the same target); those are plain
removals -- same output instance, no renaming needed.  The pass loops to a
fixpoint so cascades resolve in one call.
"""

from __future__ import annotations

from repro.core.plan import MatrixInstance, Plan, Step
from repro.planopt.common import AppliedRewrite
from repro.planopt.index import PlanIndex
from repro.planopt.structural import step_structural_key

#: Step fields that hold matrix instances (for renaming).
INSTANCE_FIELDS = ("source", "target", "left", "right", "output")


def rename_instances(index: PlanIndex, old_name: str, new_name: str) -> None:
    """Replace every instance named ``old_name`` (any layout) with the same
    layout under ``new_name``, in every step that mentions it and in the
    output table."""

    def renamed(instance: MatrixInstance) -> MatrixInstance:
        return MatrixInstance(new_name, instance.transposed, instance.scheme)

    for step in index.mentions(old_name):
        index.rebind(step, **{
            field: renamed(value)
            for field in INSTANCE_FIELDS
            if isinstance(value := getattr(step, field, None), MatrixInstance)
            and value.name == old_name
        })
    outputs = index.plan.outputs
    for output_name, instance in outputs.items():
        if instance.name == old_name:
            outputs[output_name] = renamed(instance)


def _find_duplicate(index: PlanIndex) -> tuple[Step, Step] | None:
    seen: dict[tuple, Step] = {}
    for step in index.steps():
        key = step_structural_key(step)
        if key is None:
            continue
        if key in seen:
            return seen[key], step
        seen[key] = step
    return None


def _merge(index: PlanIndex, kept: Step, dup: Step) -> AppliedRewrite:
    index.remove(dup)
    dup_out, kept_out = dup.output_instance(), kept.output_instance()
    if dup_out == kept_out:
        return AppliedRewrite("cse", f"removed exact duplicate of {kept}", removed=(str(dup),))
    # Distinct output names computing the same value: fold the
    # duplicate's whole name (all derived layouts) onto the kept name.
    rename_instances(index, dup_out.name, kept_out.name)
    description = f"merged {dup_out.name} into {kept_out.name} (identical computation)"
    return AppliedRewrite("cse", description, removed=(str(dup),))


def eliminate_common_steps(
    plan: Plan, index: PlanIndex | None = None
) -> list[AppliedRewrite]:
    """Run CSE to a fixpoint on ``plan`` (mutated in place)."""
    index = index or PlanIndex(plan)
    rewrites: list[AppliedRewrite] = []
    while (found := _find_duplicate(index)) is not None:
        rewrites.append(_merge(index, *found))
    index.flush()
    return rewrites


def merge_touched_duplicate(index: PlanIndex, handles: set[int]) -> bool:
    """Inside a trial of a plan that had no duplicates, merge one pair the
    trial made (``False``: none).  Such a pair has a touched step (one of
    ``handles``) in it, whose twin reads the same first operand."""
    for handle in sorted(handles):
        step = index.get(handle)
        operands = step.inputs() if step is not None else ()
        if not operands or len(index.readers(operands[0])) < 2:
            continue
        key = step_structural_key(step)
        for twin in index.consumers(operands[0]) if key is not None else ():
            if twin is not step and step_structural_key(twin) == key:
                _merge(index, *sorted((twin, step), key=index.handle))
                return True
    return False
