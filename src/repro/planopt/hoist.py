"""Loop-invariant hoisting: pin iteration-invariant instances for caching.

Programs arrive with loops unrolled into SSA versions (``rank@1`` ...
``rank@10``), so "hoisting" a loop-invariant computation out of the loop
is two separate obligations:

* *compute it once* -- already guaranteed after CSE has merged the
  per-iteration duplicates into a single producing step;
* *keep it resident across iterations* -- the runtime's job.  This pass
  marks which instances deserve that treatment (``plan.cache_pins``); the
  executor hosts them in the :class:`~repro.runtime.resources.BlockCache`,
  which charges their bytes to the per-worker memory model and can spill /
  lineage-recompute them under pressure.

An instance is pinned when it is *iteration-invariant* (epoch 0: no SSA
version anywhere in its ancestry) and *reused across iterations* (its
consumer steps span at least two distinct iteration versions).  This is
the reproduction's analogue of the paper's Reference-dependency caching
(Figure 9a): PageRank's Column-partitioned ``link`` matrix stays resident
while only the small rank vector moves each round.
"""

from __future__ import annotations

from repro.core.plan import Plan
from repro.planopt.common import AppliedRewrite, epoch_map, step_version
from repro.planopt.index import PlanIndex


def pin_loop_invariants(
    plan: Plan, index: PlanIndex | None = None
) -> list[AppliedRewrite]:
    """Fill ``plan.cache_pins`` with the loop-invariant, cross-iteration
    instances (mutated in place; idempotent)."""
    index = index or PlanIndex(plan)
    epochs = epoch_map(plan)
    pins = []
    for instance, consuming_steps in index.consumer_map().items():
        if index.producer(instance) is None:
            continue  # inputs the plan never materialises itself
        if epochs.get(instance, 0) != 0:
            continue  # depends on a loop-carried version
        versions = {step_version(step) for step in consuming_steps}
        if len(versions) < 2:
            continue  # used inside a single iteration only
        pins.append(instance)
    pins.sort(key=str)
    plan.cache_pins = tuple(pins)
    if not pins:
        return []
    return [AppliedRewrite(
        "hoist",
        f"pinned {len(pins)} loop-invariant instance(s) in the block cache "
        f"(computed once, resident across iterations)",
        added=tuple(str(pin) for pin in pins),
    )]
