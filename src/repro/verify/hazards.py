"""Static happens-before hazard detection over the stage graph.

The runtime's :class:`~repro.runtime.resources.ResourceManager` gives every
block instance publish/consume/release semantics: a kernel *publishes* its
output once, *consumes* its inputs, and the manager releases an instance
when its refcount drains.  Those events are implicit in the plan -- each
step's output is its publish, its inputs its consumes -- so the full event
schedule can be checked **before** execution against the ordering the
:class:`~repro.runtime.graph.StageGraph` actually guarantees:

* within a node, steps run serially in ascending plan order;
* across nodes, only the transitive closure of the node ``deps`` edges
  orders anything.  Two nodes without a path between them may run
  concurrently on pool threads.

A *read-before-publish* hazard is a step consuming an instance (or driver
scalar) that some step produces -- but no producer is ordered before the
consumer.  This is exactly the PR-5 bug class: a missing ordering edge let
a pool thread touch state before its producer's publish was visible.  A
*double-publish* hazard is two steps publishing conflicting values for the
same logical matrix -- the runtime would raise ``produced twice`` at
whichever publish loses the race.  Re-publications of the *same* symbolic
value (a duplicated broadcast, a transpose round-trip) are redundancy, not
a race for the value, and are left to the DM2xx inefficiency rules.

Inputs with no producer anywhere in the plan are skipped here: dangling
dataflow is DM107's finding, not an ordering defect.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.runtime.graph import StageGraph

#: Hazard kinds reported by :func:`find_hazards`.
READ_BEFORE_PUBLISH = "read-before-publish"
DOUBLE_PUBLISH = "double-publish"


@dataclasses.dataclass(frozen=True)
class Hazard:
    """One ordering defect on the publish/consume event schedule."""

    kind: str  # READ_BEFORE_PUBLISH | DOUBLE_PUBLISH
    step: int  # plan index of the defective consumer/publisher
    subject: str  # the instance or scalar at risk
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] step {self.step}: {self.subject} -- {self.detail}"


def ancestor_masks(graph: StageGraph) -> List[int]:
    """Bitmask of transitive ancestor node indices, per node.

    Node indices are a valid topological order (a :class:`StageGraph`
    construction invariant), so one forward sweep suffices.
    """
    masks = [0] * len(graph.nodes)
    for node in graph.nodes:
        mask = 0
        for dep in node.deps:
            mask |= masks[dep] | (1 << dep)
        masks[node.index] = mask
    return masks


def happens_before(
    graph: StageGraph, producer: int, consumer: int, masks: List[int]
) -> bool:
    """Does the scheduler guarantee step ``producer`` completes -- publish
    visible -- before step ``consumer`` starts?"""
    node_p = graph.node_of_step.get(producer)
    node_c = graph.node_of_step.get(consumer)
    if node_p is None or node_c is None:
        return False
    if node_p == node_c:  # same island: serial, ascending plan order
        return producer < consumer
    return bool(masks[node_c] & (1 << node_p))


def find_hazards(graph: StageGraph) -> List[Hazard]:
    """All read-before-publish and double-publish hazards in the graph."""
    plan = graph.plan
    masks = ancestor_masks(graph)
    publishers = graph.defuse.producers  # a read is safe after *any* of them
    scalar_publishers = graph.defuse.scalar_producers

    hazards: List[Hazard] = []

    def check_read(consumer: int, producers: Tuple[int, ...], subject: str) -> None:
        if any(happens_before(graph, p, consumer, masks) for p in producers):
            return
        hazards.append(
            Hazard(
                kind=READ_BEFORE_PUBLISH,
                step=consumer,
                subject=subject,
                detail=(
                    f"produced at step(s) {list(producers)} but no ordering edge "
                    f"reaches step {consumer}; a pool thread may read the "
                    "instance before its publish is visible"
                ),
            )
        )

    for index, step in enumerate(plan.steps):
        for instance in step.inputs():
            producers = publishers.get(instance)
            if producers:  # unproduced inputs are DM107's finding
                check_read(index, producers, str(instance))
        for name in step.scalar_inputs():
            producers = scalar_publishers.get(name)
            if producers:  # program-level scalars need no step
                check_read(index, producers, f"scalar {name!r}")

    # Double publish: conflicting symbolic values for one logical name.
    # value_summary keeps the first definition and records every later,
    # *different* one -- identical re-publications (duplicated broadcast,
    # transpose round-trip) produce no conflict and stay DM2xx redundancy.
    # Imported here: the memory bound reads this module's ancestor_masks
    # and needs none of the certifier's value analysis.
    from repro.verify.certify import value_summary

    summary = value_summary(plan)
    for conflict in summary.conflicts:
        others: Tuple[int, ...] = tuple(
            i
            for instance, steps in publishers.items()
            if instance.name == conflict.name
            for i in steps
            if i != conflict.step
        )
        hazards.append(
            Hazard(
                kind=DOUBLE_PUBLISH,
                step=conflict.step,
                subject=conflict.name,
                detail=(
                    f"also published by step(s) {list(others)} with a "
                    "different symbolic value; whichever publish loses the "
                    "race determines the result"
                ),
            )
        )
    return hazards
