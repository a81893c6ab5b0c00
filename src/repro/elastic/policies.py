"""Elasticity policies: turning a plan's stage profile into a timeline.

A policy decides how many members the pool should have at every stage,
given the per-stage *weights* of the plan (how much work each stage
carries: :attr:`repro.core.cost.CostTable.flops_by_stage`, so membership
scales toward the stages that actually burn compute), and emits the
join/leave events that step membership toward those targets.  Three
policies span the trade-off the elasticity benchmarks sweep:

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
from typing import Protocol, Sequence

from repro.elastic.spec import ElasticEvent
from repro.errors import ElasticSpecError


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
