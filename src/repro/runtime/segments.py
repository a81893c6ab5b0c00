"""Segment-wise execution of staged (while-convergence) programs.

A :class:`~repro.frontend.staged.StagedProgram` cannot be planned as one
fixed plan -- its iteration count is data-dependent.  The session instead
*extends the plan dynamically*: the prologue runs once, then the loop body
(planned exactly once and re-used) runs segment after segment, each
segment's carried outputs wired into the next segment's loads, until the
driver-evaluated condition scalar flips.  Every segment is an ordinary
plan execution, so the whole static stack -- lint, verification,
peak-memory prediction, trace reconciliation, chaos recovery -- applies
per segment.

This module holds the result types and the pure wiring logic
(:func:`carried_inputs`, :func:`resolve_outputs`, :func:`merge_recovery`);
the execution driver itself lives in
:meth:`repro.session.DMacSession.run_staged`, next to ``run``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ExecutionError
from repro.frontend.staged import StagedProgram
from repro.rdd.clock import TimeBreakdown
from repro.runtime.executor import ExecutionResult


@dataclasses.dataclass(frozen=True)
class SegmentRecord:
    """One executed segment: the prologue or one body iteration."""

    label: str  # "prologue" | "segment-1" | "segment-2" | ...
    result: ExecutionResult
    continued: bool  # the condition's verdict after this segment


@dataclasses.dataclass
class StagedResult:
    """Aggregate result of a staged run, shaped like an ExecutionResult.

    ``matrices``/``scalars`` are keyed by *user* variable names (the
    staged outputs), resolved to whichever segment last defined them.
    Cost metrics are summed over all segments; memory peaks are maxima.
    The per-segment breakdown (including each segment's tracer) stays
    available on ``segments``.
    """

    program: StagedProgram
    segments: list[SegmentRecord]
    matrices: dict[str, np.ndarray]
    scalars: dict[str, float]
    comm_bytes: int
    time: TimeBreakdown
    num_stages: int
    peak_memory_bytes: int
    wall_seconds: float
    predicted_peak_memory_bytes: int | None = None
    recovery: dict | None = None

    @property
    def simulated_seconds(self) -> float:
        return self.time.total_seconds

    @property
    def num_segments(self) -> int:
        """Body iterations executed (the prologue is not counted)."""
        return len(self.segments) - 1

    @property
    def tracing(self) -> object | None:
        """The last segment's TraceCollector (per-segment ones are on
        ``segments[i].result.tracing``)."""
        return self.segments[-1].result.tracing if self.segments else None

    @property
    def cache(self) -> dict | None:
        """The last segment's block-cache statistics."""
        return self.segments[-1].result.cache if self.segments else None

    @property
    def elastic(self) -> dict | None:
        """Membership accounting aggregated over all segments:
        worker/slot-seconds and rebalance bytes are summed, events
        concatenated, membership taken at the ends."""
        summaries = [record.result.elastic for record in self.segments]
        if not summaries:
            return None
        return {
            "slots": summaries[0]["slots"],
            "seed": summaries[0]["seed"],
            "initial_members": summaries[0]["initial_members"],
            "final_members": summaries[-1]["final_members"],
            "events": [event for s in summaries for event in s["events"]],
            "worker_seconds": sum(s["worker_seconds"] for s in summaries),
            "slot_seconds": sum(s["slot_seconds"] for s in summaries),
            "rebalance_bytes": sum(s["rebalance_bytes"] for s in summaries),
        }

    def describe(self) -> str:
        condition = self.program.condition.describe()
        lines = [
            f"staged run {self.program.name}: {self.num_segments} "
            f"segment(s) until not ({condition})"
        ]
        for record in self.segments:
            verdict = "continue" if record.continued else "stop"
            lines.append(
                f"  {record.label}: {record.result.num_stages} stages, "
                f"{record.result.comm_bytes} bytes -> {verdict}"
            )
        return "\n".join(lines)


def carried_inputs(
    staged: StagedProgram,
    inputs: dict[str, np.ndarray],
    prologue: ExecutionResult,
    previous: ExecutionResult | None,
) -> dict[str, np.ndarray]:
    """Bind the body program's loads for the next segment.

    The first segment reads runtime inputs and prologue outputs; later
    segments read the previous segment's carried outputs (loop-invariant
    inputs keep their first source forever).
    """
    bound: dict[str, np.ndarray] = {}
    for var in staged.carried:
        if previous is not None and var.loop_version is not None:
            bound[var.name] = previous.matrices[var.loop_version]
        elif var.first_kind == "input":
            if var.first_version not in inputs:
                raise ExecutionError(
                    f"no input array bound for load {var.first_version!r}"
                )
            bound[var.name] = np.asarray(inputs[var.first_version])
        else:
            bound[var.name] = prologue.matrices[var.first_version]
    return bound


def resolve_outputs(
    staged: StagedProgram,
    prologue: ExecutionResult,
    last: ExecutionResult | None,
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """Resolve the user-facing outputs against the segments that ran."""
    matrices: dict[str, np.ndarray] = {}
    for out in staged.matrix_outputs:
        if last is not None and out.body_version is not None:
            matrices[out.name] = last.matrices[out.body_version]
        elif out.prologue_version is not None:
            matrices[out.name] = prologue.matrices[out.prologue_version]
        else:
            raise ExecutionError(
                f"output {out.name!r} is only defined inside the loop, "
                "and no segment ran (the condition was false immediately)"
            )
    scalars: dict[str, float] = {}
    for out in staged.scalar_outputs:
        if last is not None and out.body_version is not None:
            scalars[out.name] = last.scalars[out.body_version]
        elif out.prologue_version is not None:
            scalars[out.name] = prologue.scalars[out.prologue_version]
        else:
            raise ExecutionError(
                f"scalar output {out.name!r} is only defined inside the "
                "loop, and no segment ran (the condition was false "
                "immediately)"
            )
    # The final condition scalars: how converged the run ended up.
    final = last if last is not None else prologue
    for term in (staged.condition.lhs, staged.condition.rhs):
        if isinstance(term, str):
            scalars[term] = final.scalars[term]
    return matrices, scalars


def merge_recovery(records: list[SegmentRecord]) -> dict | None:
    """Fold per-segment recovery summaries: counters sum, events chain."""
    summaries = [r.result.recovery for r in records if r.result.recovery]
    if not summaries:
        return None
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            elif isinstance(value, (int, float)):
                merged[key] = merged.get(key, 0) + value
            else:  # pragma: no cover - no other field kinds today
                merged[key] = value
    return merged


def aggregate(
    staged: StagedProgram, records: list[SegmentRecord]
) -> StagedResult:
    """Fold segment results into one :class:`StagedResult`."""
    prologue = records[0].result
    last = records[-1].result if len(records) > 1 else None
    matrices, scalars = resolve_outputs(staged, prologue, last)
    time = TimeBreakdown(
        network_seconds=sum(r.result.time.network_seconds for r in records),
        compute_seconds=sum(r.result.time.compute_seconds for r in records),
        overhead_seconds=sum(r.result.time.overhead_seconds for r in records),
    )
    predictions = [
        r.result.predicted_peak_memory_bytes
        for r in records
        if r.result.predicted_peak_memory_bytes is not None
    ]
    return StagedResult(
        program=staged,
        segments=records,
        matrices=matrices,
        scalars=scalars,
        comm_bytes=sum(r.result.comm_bytes for r in records),
        time=time,
        num_stages=sum(r.result.num_stages for r in records),
        peak_memory_bytes=max(r.result.peak_memory_bytes for r in records),
        wall_seconds=sum(r.result.wall_seconds for r in records),
        predicted_peak_memory_bytes=max(predictions) if predictions else None,
        recovery=merge_recovery(records),
    )


__all__ = [
    "SegmentRecord",
    "StagedResult",
    "aggregate",
    "carried_inputs",
    "merge_recovery",
    "resolve_outputs",
]
