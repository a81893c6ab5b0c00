"""Fusion: collapse cellwise chains whose intermediates nobody else reads.

GNMF's multiplicative updates are ladders of cell-wise steps -- e.g.
``H * (W^T V) / (W^T W H)`` multiplies and divides three aligned matrices --
and the unfused plan materialises every rung as a full distributed matrix
that is registered, published and released just to feed the next rung.  An
intermediate is fusable only when nothing else can observe it: it is not a
plan output, not a cache pin, and its sole reader is the chain's next
cellwise step.  Each maximal chain of cellwise steps becomes one
:class:`~repro.core.plan.FusedCellwiseStep`, which the engine executes as
one composed numpy kernel per block (:mod:`repro.localexec.fused`): no
intermediate grid is ever built.

The pass runs *last* in the pipeline (after the CSE/coalesce/DCE rounds and
hoisting), because instance-renaming passes cannot see inside a fused
step's chain payload.

Every fusion is translation-validated: :mod:`repro.verify.certify` replays
the chain symbolically and proves the fused output's value term identical
to the unfused plan's, and its ``fusion-chain-equivalence`` obligation
re-derives each fused step's term from its own chain payload.  An
uncertifiable fusion aborts optimization.
"""

from __future__ import annotations

from repro.core.plan import CellwiseStep, FusedCellwiseStep, Plan, Step
from repro.planopt.common import AppliedRewrite
from repro.planopt.index import PlanIndex


def fuse_chains(plan: Plan, index: PlanIndex | None = None) -> list[AppliedRewrite]:
    """Merge fusable cellwise chains in place; one rewrite per chain."""
    index = index or PlanIndex(plan)
    hidden = set(plan.outputs.values()) | set(plan.cache_pins)

    # A cellwise step is absorbed into its consumer when its output is
    # invisible to everything else: single reading step, itself cellwise,
    # and the instance is neither a plan output nor a cache pin.
    merged_into: dict[int, CellwiseStep] = {}
    for step in plan.steps:
        if not isinstance(step, CellwiseStep) or step.output in hidden:
            continue
        readers = index.consumers(step.output)
        if len(readers) == 1 and isinstance(readers[0], CellwiseStep):
            merged_into[id(step)] = readers[0]

    producers_of: dict[int, list[CellwiseStep]] = {}
    for step in plan.steps:
        consumer = merged_into.get(id(step))
        if consumer is not None:
            assert isinstance(step, CellwiseStep)
            producers_of.setdefault(id(consumer), []).append(step)

    rewrites: list[AppliedRewrite] = []
    replaced: dict[int, FusedCellwiseStep] = {}
    absorbed: set[int] = set()
    for step in plan.steps:
        if not isinstance(step, CellwiseStep):
            continue
        if id(step) in merged_into or id(step) not in producers_of:
            continue  # absorbed elsewhere, or nothing feeds it fusably
        members: list[CellwiseStep] = []
        frontier: list[CellwiseStep] = [step]
        while frontier:
            current = frontier.pop()
            members.append(current)
            frontier.extend(producers_of.get(id(current), []))
        members.sort(key=index.handle)
        fused = FusedCellwiseStep(chain=tuple(members), output=step.output)
        replaced[id(step)] = fused
        absorbed.update(id(member) for member in members if member is not step)
        rewrites.append(
            AppliedRewrite(
                pass_name="fuse",
                description=(
                    f"fused {len(members)} cellwise steps into one "
                    f"composed kernel for {fused.output}"
                ),
                removed=tuple(str(member) for member in members),
                added=(str(fused),),
            )
        )
    if not rewrites:
        return []
    plan.steps = [
        replaced.get(id(step), step)
        for step in plan.steps
        if id(step) not in absorbed
    ]
    index.rebuild()  # a fused step replaces its chain in place: not a mutation
    return rewrites


def unfused_chain_heads(plan: Plan) -> list[tuple[CellwiseStep, Step, str]]:
    """Cellwise steps feeding a sole cellwise consumer that are *not* inside
    a fused step -- i.e. chains :func:`fuse_chains` would merge or
    nearly merged.  Each entry is ``(producer, consumer, blocker)`` where
    ``blocker`` is ``"output"`` (the intermediate is published as a plan
    output), ``"pin"`` (it is cache-pinned), or ``"fusable"`` (nothing
    blocks it -- on an optimized plan that means the pass never ran).  Used
    by the lint's DM401 rule."""
    outputs = set(plan.outputs.values())
    pins = set(plan.cache_pins)
    index = PlanIndex(plan)
    heads: list[tuple[CellwiseStep, Step, str]] = []
    for step in plan.steps:
        if not isinstance(step, CellwiseStep):
            continue
        readers = index.consumers(step.output)
        if len(readers) != 1 or not isinstance(readers[0], CellwiseStep):
            continue
        consumer = readers[0]
        if step.output in outputs:
            blocker = "output"
        elif step.output in pins:
            blocker = "pin"
        else:
            blocker = "fusable"
        heads.append((step, consumer, blocker))
    return heads
