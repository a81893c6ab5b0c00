"""Lineage tracking: per-instance provenance for recomputation.

DMac-on-Spark inherits this for free -- every RDD carries its lineage, and
a lost partition is recomputed from its narrow/wide ancestry.  Our plans
already *are* the lineage: each :class:`~repro.core.plan.MatrixInstance`
is in SSA form with a unique first producer, so provenance is derivable
statically.  :class:`LineageTracker` resolves, for a lost instance, the
minimal upstream **recovery cone**: the producing step, plus (recursively)
the producers of any of its inputs that are no longer materialised, bottoming
out at instances that are still live, checkpointed, or rebuilt from driver
inputs (source steps have no matrix inputs).
"""

from __future__ import annotations

from typing import Callable

from repro.core.defuse import DefUse
from repro.core.plan import MatrixInstance, Plan
from repro.errors import ShuffleBlockLost


class LineageTracker:
    """Static provenance of every instance of one plan."""

    def __init__(self, plan: Plan, defuse: DefUse | None = None) -> None:
        self.plan = plan
        self._defuse = defuse or DefUse.of(plan)  # the plan's own, if at hand

    def producing_step(self, instance: MatrixInstance) -> int | None:
        """Plan index of the step that first produces ``instance``."""
        return self._defuse.first(instance)

    def recovery_cone(
        self,
        instance: MatrixInstance,
        available: Callable[[MatrixInstance], bool],
    ) -> list[int]:
        """Plan-step indices to re-run (ascending = valid execution order)
        to rebuild ``instance``, given which instances are still
        ``available`` (live or checkpointed).

        Raises :class:`~repro.errors.ShuffleBlockLost` if the cone hits an
        instance with no producer (a hand-built plan consuming externals).
        """
        needed: set[int] = set()
        seen: set[MatrixInstance] = {instance}
        stack: list[MatrixInstance] = [instance]
        while stack:
            lost = stack.pop()
            producer = self._defuse.first(lost)
            if producer is None:
                raise ShuffleBlockLost(
                    f"cannot recover {lost}: no producing step in the plan"
                )
            if producer in needed:
                continue
            needed.add(producer)
            for upstream in self.plan.steps[producer].inputs():
                if upstream in seen or available(upstream):
                    continue
                seen.add(upstream)
                stack.append(upstream)
        return sorted(needed)
