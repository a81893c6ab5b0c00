"""A run is a fold over plan executions.

:meth:`repro.session.DMacSession.run` executes a program's first plan
once and a ``while`` loop's body plan -- planned exactly once -- again and
again, each execution's carried outputs wired into the next one's loads,
until the driver-evaluated condition flips; a straight-line program is
the one-execution case.  Every execution is an ordinary
:class:`~repro.runtime.executor.PlanExecutor` one, so lint, verification,
peak-memory prediction, trace reconciliation and chaos recovery apply per
segment.  This module holds the result type (:class:`RunResult`), the
:func:`fold` that builds it and the pure wiring logic.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ExecutionError
from repro.frontend.staged import StagedOutput, StagedProgram
from repro.rdd.clock import TimeBreakdown
from repro.runtime.executor import ExecutionResult


@dataclasses.dataclass(frozen=True)
class SegmentRecord:
    """One plan execution of a run."""

    label: str  # "program" | "prologue" | "segment-1" | "segment-2" | ...
    result: ExecutionResult
    continued: bool  # the condition's verdict after this segment


@dataclasses.dataclass
class RunResult(ExecutionResult):
    """What :meth:`DMacSession.run` returns: its executions, folded.

    ``matrices``/``scalars`` are keyed by *user* variable names, resolved
    to whichever segment last defined them.  Additive books (bytes,
    simulated and wall seconds, stages, batched pairs, membership
    worker/slot-seconds and rebalance bytes, recovery counters) are summed
    in segment order; peaks and the predicted peak are maxima; ``trace``
    and event lists are concatenated; the per-plan objects (``tracing``,
    ``cache``, ``stage_timings``, ``critical_path``) are the last
    execution's.  The per-execution results stay on ``segments``.
    """

    segments: tuple[SegmentRecord, ...] = ()
    #: The ``while`` loop that drove the run; ``None`` for a straight-line
    #: program (whose one segment never continues).
    loop: StagedProgram | None = None

    @property
    def num_segments(self) -> int:
        """Loop-body executions (the first segment is not counted)."""
        return len(self.segments) - 1

    def describe(self) -> str:
        lines = []
        if self.loop is not None:
            lines.append(
                f"staged run {self.loop.name}: {self.num_segments} "
                f"segment(s) until not ({self.loop.condition.describe()})"
            )
        for record in self.segments:
            verdict = "continue" if record.continued else "stop"
            lines.append(
                f"  {record.label}: {record.result.num_stages} stages, "
                f"{record.result.comm_bytes} bytes -> {verdict}"
            )
        return "\n".join(lines)


def carried_inputs(
    loop: StagedProgram,
    inputs: dict[str, np.ndarray],
    prologue: ExecutionResult,
    previous: ExecutionResult | None,
) -> dict[str, np.ndarray]:
    """Bind the body program's loads for the next segment.

    The first body segment reads runtime inputs and prologue outputs;
    later segments read the previous segment's carried outputs
    (loop-invariant inputs keep their first source forever, in the form
    the caller bound them: the backend validates and cuts them).
    """
    bound: dict[str, np.ndarray] = {}
    for var in loop.carried:
        if previous is not None and var.loop_version is not None:
            bound[var.name] = previous.matrices[var.loop_version]
        elif var.first_kind == "input":
            if var.first_version not in inputs:
                raise ExecutionError(
                    f"no input array bound for load {var.first_version!r}"
                )
            bound[var.name] = inputs[var.first_version]
        else:
            bound[var.name] = prologue.matrices[var.first_version]
    return bound


def _resolve(
    kind: str,
    outputs: tuple[StagedOutput, ...],
    prologue: dict,
    last: dict | None,
) -> dict:
    resolved = {}
    for out in outputs:
        if last is not None and out.body_version is not None:
            resolved[out.name] = last[out.body_version]
        elif out.prologue_version is not None:
            resolved[out.name] = prologue[out.prologue_version]
        else:
            raise ExecutionError(
                f"{kind} {out.name!r} is only defined inside the loop, and "
                "no segment ran (the condition was false immediately)"
            )
    return resolved


def resolve_outputs(
    loop: StagedProgram | None, results: list[ExecutionResult]
) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """The user-facing outputs of the executions that ran.  Without a
    loop they are the one execution's, under their own names."""
    prologue, final = results[0], results[-1]
    if loop is None:
        return prologue.matrices, prologue.scalars
    ran = len(results) > 1
    matrices = _resolve(
        "output", loop.matrix_outputs, prologue.matrices,
        final.matrices if ran else None,
    )
    scalars = _resolve(
        "scalar output", loop.scalar_outputs, prologue.scalars,
        final.scalars if ran else None,
    )
    # The final condition scalars: how converged the run ended up.
    for term in (loop.condition.lhs, loop.condition.rhs):
        if isinstance(term, str):
            scalars[term] = final.scalars[term]
    return matrices, scalars


def merge_recovery(results: list[ExecutionResult]) -> dict | None:
    """Fold per-execution recovery summaries: counters sum, events chain."""
    summaries = [r.recovery for r in results if r.recovery]
    if not summaries:
        return None
    merged: dict = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def merge_membership(results: list[ExecutionResult]) -> dict | None:
    """Fold per-execution membership summaries: worker/slot-seconds and
    rebalance bytes sum, events chain, membership is taken at the ends."""
    summaries = [r.elastic for r in results if r.elastic is not None]
    if not summaries:
        return None
    first, last = summaries[0], summaries[-1]
    return {
        "slots": first["slots"],
        "seed": first["seed"],
        "initial_members": first["initial_members"],
        "final_members": last["final_members"],
        "events": [event for s in summaries for event in s["events"]],
        "worker_seconds": sum(s["worker_seconds"] for s in summaries),
        "slot_seconds": sum(s["slot_seconds"] for s in summaries),
        "rebalance_bytes": sum(s["rebalance_bytes"] for s in summaries),
    }


def fold(
    loop: StagedProgram | None, records: list[SegmentRecord]
) -> RunResult:
    """Fold a run's executions, in segment order, into one result.  The
    fold of one execution carries exactly that execution's values."""
    results = [record.result for record in records]
    last = results[-1]
    matrices, scalars = resolve_outputs(loop, results)
    predictions = [
        r.predicted_peak_memory_bytes
        for r in results
        if r.predicted_peak_memory_bytes is not None
    ]
    return RunResult(
        matrices=matrices,
        scalars=scalars,
        comm_bytes=sum(r.comm_bytes for r in results),
        time=TimeBreakdown(
            network_seconds=sum(r.time.network_seconds for r in results),
            compute_seconds=sum(r.time.compute_seconds for r in results),
            overhead_seconds=sum(r.time.overhead_seconds for r in results),
        ),
        num_stages=sum(r.num_stages for r in results),
        peak_memory_bytes=max(r.peak_memory_bytes for r in results),
        wall_seconds=sum(r.wall_seconds for r in results),
        batched_pairs=sum(r.batched_pairs for r in results),
        trace=(
            None
            if last.trace is None
            else [step for r in results for step in r.trace or ()]
        ),
        stage_timings=last.stage_timings,
        critical_path=last.critical_path,
        recovery=merge_recovery(results),
        cache=last.cache,
        tracing=last.tracing,
        predicted_peak_memory_bytes=max(predictions) if predictions else None,
        elastic=merge_membership(results),
        segments=tuple(records),
        loop=loop,
    )


__all__ = [
    "RunResult",
    "SegmentRecord",
    "carried_inputs",
    "fold",
    "merge_membership",
    "merge_recovery",
    "resolve_outputs",
]
