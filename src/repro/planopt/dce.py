"""Dead-step elimination: drop steps whose value never reaches an output.

Backward liveness from the plan's matrix outputs and the program's scalar
outputs, through each step's ``inputs()`` / ``scalar_inputs()``.  Other
passes create the garbage this one collects: CSE leaves conversion chains
of merged names dangling, repartition coalescing strands the intermediate
hop of a merged ``A -> Row -> Column`` chain.
"""

from __future__ import annotations

from repro.core.plan import Plan
from repro.planopt.common import AppliedRewrite
from repro.planopt.index import PlanIndex


def eliminate_dead_steps(
    plan: Plan, index: PlanIndex | None = None
) -> list[AppliedRewrite]:
    """Remove unreachable steps from ``plan`` (mutated in place)."""
    index = index or PlanIndex(plan)
    live_instances = set(plan.outputs.values())
    live_scalars = set(plan.program.scalar_outputs)
    dead = []
    for step in reversed(index.steps()):
        if (
            step.output_instance() in live_instances
            or step.scalar_output() in live_scalars
        ):
            live_instances.update(step.inputs())
            live_scalars.update(step.scalar_inputs())
        else:
            dead.append(step)
    if not dead:
        return []
    dead.reverse()
    for step in dead:
        index.remove(step)
    index.flush()
    return [AppliedRewrite(
        "dce",
        f"removed {len(dead)} step(s) whose value never reaches an output",
        removed=tuple(str(step) for step in dead),
    )]
