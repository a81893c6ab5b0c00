"""Def-use: who produces and who reads each instance of a plan.

A DMac plan *is* its dependency graph (Section 4): every operator's input
is tied to the matrix instance -- or driver scalar -- an earlier step
produced.  :meth:`DefUse.of` is the one loop that derives that relation;
the stage graph, the hazard check, pin placement, translation validation,
lineage recovery and the lint rules compose the record it returns.

The record keeps **all** producers of a key and each reader says which it
means: the *first* (:meth:`DefUse.first`) for all of them -- plans are
SSA, a later re-publication is a defect, not a dependency -- except the
hazard check, which takes *all*.  (The optimizer's mutable
:class:`~repro.planopt.index.PlanIndex` tracks the *last* producer across
in-place rewrites: a different question.)

It holds instances, names and step indices only, never a step or the
plan: it is good for any clone of its plan (``clone_plan`` keeps step
order) and keeps no plan alive wherever :meth:`Plan.stamp` guards it.
"""

from __future__ import annotations

import dataclasses

from repro.core.plan import MatrixInstance, Plan


@dataclasses.dataclass(frozen=True)
class DefUse:
    """Producing and consuming step indices per matrix instance and per
    driver scalar, all ascending."""

    producers: dict[MatrixInstance, tuple[int, ...]]
    consumers: dict[MatrixInstance, tuple[int, ...]]
    #: ``(step index, instance)`` per read no earlier step produced for, in
    #: (step, operand) order -- one entry per read, repeats included
    unproduced: tuple[tuple[int, MatrixInstance], ...]
    scalar_producers: dict[str, tuple[int, ...]]
    scalar_consumers: dict[str, tuple[int, ...]]
    scalar_unproduced: tuple[tuple[int, str], ...]

    @classmethod
    def of(cls, plan: Plan) -> "DefUse":
        producers: dict[MatrixInstance, list[int]] = {}
        consumers: dict[MatrixInstance, list[int]] = {}
        unproduced: list[tuple[int, MatrixInstance]] = []
        scalar_producers: dict[str, list[int]] = {}
        scalar_consumers: dict[str, list[int]] = {}
        scalar_unproduced: list[tuple[int, str]] = []
        for index, step in enumerate(plan.steps):
            # Reads before the write: a step reading its own output is not
            # produced for.
            for instance in step.inputs():
                consumers.setdefault(instance, []).append(index)
                if instance not in producers:
                    unproduced.append((index, instance))
            for name in step.scalar_inputs():
                scalar_consumers.setdefault(name, []).append(index)
                if name not in scalar_producers:
                    scalar_unproduced.append((index, name))
            output = step.output_instance()
            if output is not None:
                producers.setdefault(output, []).append(index)
            scalar = step.scalar_output()
            if scalar is not None:
                scalar_producers.setdefault(scalar, []).append(index)
        return cls(
            {key: tuple(made) for key, made in producers.items()},
            {key: tuple(read) for key, read in consumers.items()},
            tuple(unproduced),
            {key: tuple(made) for key, made in scalar_producers.items()},
            {key: tuple(read) for key, read in scalar_consumers.items()},
            tuple(scalar_unproduced),
        )

    def first(self, instance: MatrixInstance) -> int | None:
        """Index of the first step producing ``instance``, if any does."""
        made = self.producers.get(instance)
        return made[0] if made else None

    def order_violations(self) -> tuple[tuple[int, str], ...]:
        """``(step index, subject)`` per read that comes before every
        producer of what it reads, in step order (a step's instances, then
        its ``scalar <name>`` reads).  A scalar no step produces is the
        driver's own and violates nothing."""
        early = [(i, str(x)) for i, x in self.unproduced if x in self.producers]
        early += [
            (i, f"scalar {name}")
            for i, name in self.scalar_unproduced
            if name in self.scalar_producers
        ]
        return tuple(sorted(early, key=lambda item: item[0]))  # stable

    def dangling(self) -> tuple[str, ...]:
        """Instances read but produced by no step, sorted, each once."""
        return tuple(
            sorted({str(x) for __, x in self.unproduced if x not in self.producers})
        )
