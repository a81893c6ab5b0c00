"""Fusion: collapse chains whose intermediates nobody else reads.

Two kinds of chain, one rule -- an intermediate is fusable only when
nothing else can observe it: it is not a plan output, not a cache pin, and
its sole reader is the chain's next step.

* **Cellwise chains.**  GNMF's multiplicative updates are ladders of
  cell-wise steps -- e.g. ``H * (W^T V) / (W^T W H)`` multiplies and divides
  three aligned matrices -- and the unfused plan materialises every rung as
  a full distributed matrix that is registered, published and released
  just to feed the next rung.  Each maximal chain of cellwise steps becomes
  one :class:`~repro.core.plan.FusedCellwiseStep`, which the engine
  executes as one composed numpy kernel per block
  (:mod:`repro.kernels.fused`): no intermediate grid is ever built.
* **Row-local product chains.**  ``W H H^T`` is planned as two ``rmm2``
  products, and ``W H`` -- in GNMF the largest matrix of the plan -- is
  read by the second product alone.  Block row ``i`` of an ``rmm2`` product
  needs block row ``i`` of its left operand only, so a maximal run of
  ``rmm2`` steps, each link's output read only by the next link as its
  left operand and every link in one stage, becomes one
  :class:`~repro.core.plan.ProductChainStep`: the engine pushes each block
  row through every link before the next row starts, so an intermediate
  exists one block row at a time (§5.3's In-Place idea, one level up).

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

from typing import NamedTuple, Sequence

from repro.core.plan import (
    CellwiseStep,
    FusedCellwiseStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    ProductChainStep,
    Step,
)
from repro.core.stages import step_stages
from repro.planopt.common import AppliedRewrite
from repro.planopt.index import PlanIndex


def fuse_chains(plan: Plan, index: PlanIndex | None = None) -> list[AppliedRewrite]:
    """Merge fusable cellwise chains and row-local product chains in place;
    one rewrite per chain, cellwise chains first."""
    index = index or PlanIndex(plan)
    hidden = set(plan.outputs.values()) | set(plan.cache_pins)
    # The two kinds are disjoint, and a reader of the other kind blocks a
    # fusion whether or not it is fused itself: both read one index.
    fusions = _cellwise_fusions(plan, index, hidden) + _product_fusions(
        plan, index, hidden
    )
    if not fusions:
        return []
    replaced = {id(fusion.sink): fusion.fused for fusion in fusions}
    absorbed = {
        id(member)
        for fusion in fusions
        for member in fusion.members
        if member is not fusion.sink
    }
    plan.steps = [
        replaced.get(id(step), step)
        for step in plan.steps
        if id(step) not in absorbed
    ]
    index.rebuild()  # a fused step replaces its chain in place: not a mutation
    return [fusion.rewrite for fusion in fusions]


class _Fusion(NamedTuple):
    fused: Step
    sink: Step  # the member whose place the fused step takes
    members: Sequence[Step]
    rewrite: AppliedRewrite


def _cellwise_fusions(
    plan: Plan, index: PlanIndex, hidden: set[MatrixInstance]
) -> list[_Fusion]:
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

    fusions: list[_Fusion] = []
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
        rewrite = AppliedRewrite(
            pass_name="fuse",
            description=(
                f"fused {len(members)} cellwise steps into one "
                f"composed kernel for {fused.output}"
            ),
            removed=tuple(str(member) for member in members),
            added=(str(fused),),
        )
        fusions.append(_Fusion(fused, step, members, rewrite))
    return fusions


def _is_link(step: Step) -> bool:
    return isinstance(step, MatMulStep) and step.strategy == "rmm2"


def _product_fusions(
    plan: Plan, index: PlanIndex, hidden: set[MatrixInstance]
) -> list[_Fusion]:
    # A link hands its output to the next one when nothing else can see
    # it: read by exactly one step, an ``rmm2`` reading it as its left
    # operand only, and neither a plan output nor a cache pin.
    next_link: dict[int, MatMulStep] = {}
    for step in plan.steps:
        if not _is_link(step) or step.output in hidden:
            continue
        readers = index.consumers(step.output)
        if len(readers) != 1 or not _is_link(readers[0]):
            continue
        reader = readers[0]
        if reader.left == step.output and reader.right != step.output:
            next_link[id(step)] = reader
    if not next_link:
        return []
    # ...and runs in the same stage, so the fused step runs where each link
    # ran and the stage graph, and with it the clock, stays as it was.
    order = index.toposorted()
    stage = {id(step): number for step, number in zip(order, step_stages(order))}
    next_link = {
        key: reader
        for key, reader in next_link.items()
        if stage[key] == stage[id(reader)]
    }
    fed = {id(reader) for reader in next_link.values()}

    fusions: list[_Fusion] = []
    for step in plan.steps:
        if id(step) not in next_link or id(step) in fed:
            continue  # not a chain's first link
        links = [step]
        while id(links[-1]) in next_link:
            links.append(next_link[id(links[-1])])
        fused = ProductChainStep(chain=tuple(links), output=links[-1].output)
        rewrite = AppliedRewrite(
            pass_name="fuse",
            description=(
                f"fused {len(links)} row-local products into one "
                f"block-row pipeline for {fused.output}"
            ),
            removed=tuple(str(link) for link in links),
            added=(str(fused),),
        )
        fusions.append(_Fusion(fused, links[-1], links, rewrite))
    return fusions


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
