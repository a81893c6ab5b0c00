"""Dead-step elimination: drop steps whose value never reaches an output.

Backward reachability from the plan's matrix outputs and the program's
scalar outputs, through the producers of each step's ``inputs()`` /
``scalar_inputs()`` -- whatever order the steps are listed in.  Other
passes create the garbage this one collects: CSE leaves conversion chains
of merged names dangling, repartition coalescing strands the intermediate
hop of a merged ``A -> Row -> Column`` chain.
"""

from __future__ import annotations

from repro.core.plan import Plan, Step
from repro.planopt.common import AppliedRewrite
from repro.planopt.index import PlanIndex


def dead_steps(index: PlanIndex) -> list[Step]:
    """The steps no output depends on, in step order."""
    live = {*index.plan.outputs.values(), *index.plan.program.scalar_outputs}
    pending = list(live)
    while pending:
        for step in index.producers(pending.pop()):
            fresh = {*step.inputs(), *step.scalar_inputs()} - live
            live |= fresh
            pending.extend(fresh)
    return [
        step
        for step in index.steps()
        if step.output_instance() not in live and step.scalar_output() not in live
    ]


def dead_among(index: PlanIndex, suspects: list[Step], garbage: set[int]) -> set[int]:
    """Handles of the dead steps among ``suspects`` and of all that die with
    them, for a trial that knows where liveness can have changed.  A step
    is dead once every reader of its output is: :func:`dead_steps` on any
    plan that orders (:meth:`~PlanIndex.toposort` refuses a dead cycle).
    No rewrite moves the readers of a driver scalar: a step producing one
    is dead if it was, i.e. if its handle is in ``garbage``."""
    roots, dead, pending = set(index.plan.outputs.values()), set(), list(suspects)
    while pending:
        step = pending.pop()
        handle, output = index.handle(step), step.output_instance()
        if output is None:
            live = handle not in garbage
        else:
            live = output in roots or not index.readers(output) <= dead
        if live or handle in dead:
            continue
        dead.add(handle)
        for instance in step.inputs():
            pending.extend(index.producers(instance))
    return dead


def eliminate_dead_steps(
    plan: Plan, index: PlanIndex | None = None
) -> list[AppliedRewrite]:
    """Remove unreachable steps from ``plan`` (mutated in place)."""
    index = index or PlanIndex(plan)
    dead = dead_steps(index)
    if not dead:
        return []
    for step in dead:
        index.remove(step)
    index.flush()
    return [AppliedRewrite(
        "dce",
        f"removed {len(dead)} step(s) whose value never reaches an output",
        removed=tuple(str(step) for step in dead),
    )]
