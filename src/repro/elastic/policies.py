"""Elasticity policies: turning a plan's stage profile into a timeline.

A policy decides how many members the pool should have at every stage,
given the per-stage *weights* of the plan (how much work each stage
carries), and emits the join/leave events that step membership toward
those targets.  Three policies span the trade-off the elasticity
benchmarks sweep:

``FixedPolicy``
    Never scales: the determinism baseline, and the worker-seconds
    ceiling when sized at the peak.
``LoadTrackingPolicy``
    Sizes each stage proportionally to its share of the heaviest stage's
    weight, up to ``max_members`` -- throughput-greedy.
``CostCappedPolicy``
    Load tracking under a *worker-stage budget*: extra members go to the
    heaviest stages first and allocation stops when the budget is spent,
    trading a little throughput for a hard cost cap.

Policies are pure: the same weights always produce the same timeline, so
policy-driven elastic runs inherit the pool's determinism contract.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Protocol, Sequence

from repro.elastic.spec import ElasticEvent
from repro.errors import ElasticSpecError

if TYPE_CHECKING:
    from repro.core.plan import Plan


def plan_stage_weights(plan: Plan) -> list[float]:
    """Per-stage work weights of a staged plan: the number of steps in
    each stage (index 0 .. num_stages - 1; stages are 1-indexed in plans
    that start at stage 1 -- the weight list is indexed by ``stage``
    directly, so unused leading entries are simply zero)."""
    if not plan.steps:
        return []
    top = max(step.stage for step in plan.steps)
    weights = [0.0] * (top + 1)
    for step in plan.steps:
        weights[step.stage] += 1.0
    return weights


def plan_stage_flop_weights(plan: Plan, estimation_mode: str = "worst") -> list[float]:
    """Per-stage *flop* weights of a staged plan.

    :func:`plan_stage_weights` counts steps, which treats a scalar update
    and a dense multiplication as equal load; this variant prices each
    step with the admission cost model's conventions (``2 m k n`` scaled
    by left-operand sparsity for multiplications, one flop per cell for
    everything element-wise) so policies scale membership toward the
    stages that actually burn compute.
    """
    from repro.core.estimator import SizeEstimator
    from repro.core.plan import (
        AggregateStep,
        CellwiseStep,
        FusedCellwiseStep,
        MatMulStep,
        RowAggStep,
        ScalarMatrixStep,
        UnaryStep,
    )

    if not plan.steps:
        return []
    program = plan.program
    estimator = SizeEstimator(program, estimation_mode)

    def cellwise_flops(step: CellwiseStep) -> float:
        rows, cols = program.dims_of(step.op.left)
        return float(rows * cols)

    def step_flops(step: object) -> float:
        if isinstance(step, MatMulStep):
            m, k = program.dims_of(step.op.left)
            __, n = program.dims_of(step.op.right)
            density = min(1.0, estimator.sparsity_of(step.op.left))
            return 2.0 * m * k * n * density
        if isinstance(step, FusedCellwiseStep):
            return sum(cellwise_flops(inner) for inner in step.chain)
        if isinstance(step, CellwiseStep):
            return cellwise_flops(step)
        if isinstance(step, (ScalarMatrixStep, UnaryStep, RowAggStep, AggregateStep)):
            rows, cols = program.dims_of(step.op.operand)
            return float(rows * cols)
        return 0.0  # sources, transfers, scalar computes: negligible

    top = max(step.stage for step in plan.steps)
    weights = [0.0] * (top + 1)
    for step in plan.steps:
        weights[step.stage] += step_flops(step)
    return weights


def timeline_spec(events: Sequence[ElasticEvent]) -> str:
    """Render events back to ``--elastic`` grammar (parse round-trips)."""
    return "; ".join(event.describe() for event in events)


def _events_for_profile(profile: Sequence[int], initial: int) -> tuple[ElasticEvent, ...]:
    """Join/leave events stepping membership through ``profile`` (the
    target member count at each stage), starting from ``initial``."""
    events: list[ElasticEvent] = []
    current = initial
    for stage, target in enumerate(profile):
        if target < 1:
            raise ElasticSpecError(
                f"membership profile targets {target} members at stage {stage}"
            )
        if target > current:
            events.append(
                ElasticEvent(kind="join", stage=stage, count=target - current)
            )
        else:
            # One event per departure: each removes the youngest member.
            events.extend(
                ElasticEvent(kind="leave", stage=stage)
                for __ in range(current - target)
            )
        current = target
    return tuple(events)


class ElasticityPolicy(Protocol):
    """How a policy is consulted: stage weights in, timeline out."""

    @property
    def name(self) -> str: ...

    def timeline(
        self, weights: Sequence[float], initial: int
    ) -> tuple[ElasticEvent, ...]: ...


@dataclasses.dataclass(frozen=True)
class FixedPolicy:
    """Never scale: membership stays at ``initial`` for the whole run."""

    name: str = "fixed"

    def timeline(
        self, weights: Sequence[float], initial: int
    ) -> tuple[ElasticEvent, ...]:
        return ()


@dataclasses.dataclass(frozen=True)
class LoadTrackingPolicy:
    """Track the load: stage target = its share of the peak stage weight,
    scaled to ``max_members`` (never below one member)."""

    max_members: int
    name: str = "load-tracking"

    def timeline(
        self, weights: Sequence[float], initial: int
    ) -> tuple[ElasticEvent, ...]:
        if self.max_members < 1:
            raise ElasticSpecError(
                f"max_members must be >= 1, got {self.max_members}"
            )
        peak = max(weights, default=0.0)
        if peak <= 0:
            return ()
        profile = [
            max(1, round(self.max_members * weight / peak)) for weight in weights
        ]
        return _events_for_profile(profile, initial)


@dataclasses.dataclass(frozen=True)
class CostCappedPolicy:
    """Load tracking under a worker-stage budget.

    Every stage starts at one member (``sum(len(weights))`` worker-stages
    of baseline cost); the remaining budget buys extra members one at a
    time, always for the stage with the largest per-member weight, until
    the budget is spent or every stage is at ``max_members``.
    """

    max_members: int
    budget_worker_stages: float
    name: str = "cost-capped"

    def timeline(
        self, weights: Sequence[float], initial: int
    ) -> tuple[ElasticEvent, ...]:
        if self.max_members < 1:
            raise ElasticSpecError(
                f"max_members must be >= 1, got {self.max_members}"
            )
        if not weights:
            return ()
        profile = [1] * len(weights)
        spent = float(len(weights))
        while spent + 1.0 <= self.budget_worker_stages:
            # The stage whose next member removes the most per-member load;
            # lowest stage wins ties, so allocation is deterministic.
            stage = max(
                range(len(weights)),
                key=lambda s: (
                    weights[s] / profile[s] if profile[s] < self.max_members else -1.0,
                    -s,
                ),
            )
            if profile[stage] >= self.max_members:
                break
            profile[stage] += 1
            spent += 1.0
        return _events_for_profile(profile, initial)
