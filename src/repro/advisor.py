"""Cluster-size advisor: what-if analysis over worker counts.

Given a program, the advisor plans it for each candidate worker count and
predicts the end-to-end cost from the plan alone (no execution): the plan's
cost table (:mod:`repro.core.cost`) turned into network, compute and
stage-latency seconds on the simulated clock.  The result is the
kind of table an operator wants before renting a cluster -- and it captures
the paper's scalability story analytically: DMac's communication barely
grows with ``K`` while compute shrinks, so the sweet spot moves right as
data grows.
"""

from __future__ import annotations

import dataclasses

from repro.config import ClockConfig
from repro.core.cost import seconds
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import PlanError
from repro.lang.program import MatrixProgram


@dataclasses.dataclass(frozen=True)
class WorkerAdvice:
    """Predicted cost of running the program on one cluster size."""

    workers: int
    predicted_comm_bytes: int
    predicted_network_seconds: float
    predicted_compute_seconds: float
    predicted_overhead_seconds: float
    stages: int

    @property
    def predicted_total_seconds(self) -> float:
        return (
            self.predicted_network_seconds
            + self.predicted_compute_seconds
            + self.predicted_overhead_seconds
        )


def advise_workers(
    program: MatrixProgram,
    candidate_workers: tuple[int, ...] = (2, 4, 8, 16),
    threads_per_worker: int = 8,
    clock: ClockConfig | None = None,
) -> list[WorkerAdvice]:
    """Plan the program for each candidate ``K`` and predict its cost."""
    if not candidate_workers:
        raise PlanError("no candidate worker counts given")
    clock = clock or ClockConfig()
    advice = []
    for workers in sorted(set(candidate_workers)):
        planner = DMacPlanner(program, workers)
        plan = schedule_stages(planner.plan())
        table = planner.cost.price(plan)
        predicted = seconds(
            table.bytes, table.flops, plan.num_stages, clock, workers,
            threads_per_worker,
        )
        advice.append(
            WorkerAdvice(
                workers=workers,
                predicted_comm_bytes=table.bytes,
                predicted_network_seconds=predicted.network,
                predicted_compute_seconds=predicted.compute,
                predicted_overhead_seconds=predicted.overhead,
                stages=plan.num_stages,
            )
        )
    return advice


def best_worker_count(advice: list[WorkerAdvice]) -> int:
    """The candidate with the lowest predicted total time (ties: fewest
    workers, i.e. the cheapest cluster)."""
    if not advice:
        raise PlanError("empty advice list")
    return min(advice, key=lambda a: (a.predicted_total_seconds, a.workers)).workers
