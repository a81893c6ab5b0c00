"""Plan analysis: structured statistics about a generated plan.

``explain`` answers the questions the paper's evaluation keeps asking of a
plan -- how much does each stage communicate, which strategies were chosen,
how often does each matrix cross the network -- as data rather than prose,
so tests, benchmarks and the CLI share one implementation.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.core.cost import CostModel
from repro.core.plan import ExtendedStep, MatMulStep, Plan, RowAggStep
from repro.core.stages import schedule_stages


@dataclasses.dataclass(frozen=True)
class PlanStatistics:
    """Aggregate facts about one execution plan."""

    steps: int
    stages: int
    predicted_bytes: int
    comm_steps: int
    predicted_bytes_by_stage: dict[int, int]
    strategy_counts: dict[str, int]  # rmm1/rmm2/cpmm/... usage
    extended_counts: dict[str, int]  # partition/broadcast/transpose/extract
    matrix_moves: dict[str, int]  # logical matrix -> communicating steps

    @property
    def free_dependency_ratio(self) -> float:
        """Fraction of extended operators that were communication-free --
        the paper's 'exploited dependencies'."""
        total = sum(self.extended_counts.values())
        if total == 0:
            return 1.0
        paid = self.extended_counts.get("partition", 0) + self.extended_counts.get(
            "broadcast", 0
        )
        return 1.0 - paid / total


def explain(
    plan: Plan, num_workers: int, estimation_mode: str = "worst"
) -> PlanStatistics:
    """Compute :class:`PlanStatistics` for a plan (stages are scheduled on
    demand).  ``estimation_mode`` is the mode the plan was generated under,
    so the by-stage communication sums to ``plan.predicted_bytes``."""
    if plan.num_stages == 0:
        schedule_stages(plan)
    table = CostModel(plan.program, num_workers, estimation_mode).price(plan)

    strategies: Counter = Counter()
    extended: Counter = Counter()
    moves: Counter = Counter()
    comm_steps = 0

    for step in plan.steps:
        if isinstance(step, ExtendedStep):
            extended[step.kind] += 1
            if step.communicates:
                comm_steps += 1
                moves[step.source.name] += 1
        elif isinstance(step, (MatMulStep, RowAggStep)):
            strategies[step.strategy] += 1
            if step.communicates:
                comm_steps += 1
                moves[step.output.name] += 1

    return PlanStatistics(
        steps=len(plan.steps),
        stages=plan.num_stages,
        predicted_bytes=plan.predicted_bytes,
        comm_steps=comm_steps,
        predicted_bytes_by_stage=table.bytes_by_stage,
        strategy_counts=dict(strategies),
        extended_counts=dict(extended),
        matrix_moves=dict(moves),
    )


def format_statistics(stats: PlanStatistics) -> str:
    """Human-readable rendering of plan statistics (used by the CLI)."""
    lines = [
        f"steps: {stats.steps}   stages: {stats.stages}   "
        f"communicating steps: {stats.comm_steps}",
        f"predicted communication: {stats.predicted_bytes / 1e6:.3f} MB",
        f"free-dependency ratio: {stats.free_dependency_ratio:.0%}",
    ]
    if stats.strategy_counts:
        chosen = ", ".join(
            f"{name} x{count}" for name, count in sorted(stats.strategy_counts.items())
        )
        lines.append(f"strategies: {chosen}")
    if stats.extended_counts:
        ops = ", ".join(
            f"{name} x{count}" for name, count in sorted(stats.extended_counts.items())
        )
        lines.append(f"extended operators: {ops}")
    if stats.predicted_bytes_by_stage:
        per_stage = ", ".join(
            f"stage {stage}: {nbytes / 1e3:.1f} KB"
            for stage, nbytes in sorted(stats.predicted_bytes_by_stage.items())
        )
        lines.append(f"communication by stage: {per_stage}")
    if stats.matrix_moves:
        movers = ", ".join(
            f"{name} x{count}" for name, count in sorted(stats.matrix_moves.items())
        )
        lines.append(f"matrices crossing the network: {movers}")
    return "\n".join(lines)
