"""The user-facing entry point: build a program, run it under DMac.

Typical use::

    from repro import ClusterConfig, DMacSession, ProgramBuilder

    pb = ProgramBuilder()
    V = pb.load("V", (1000, 800), sparsity=0.01)
    W = pb.random("W", (1000, 20))
    H = pb.random("H", (20, 800))
    for _ in range(5):
        H = pb.assign("H", H * (W.T @ V) / (W.T @ W @ H))
        W = pb.assign("W", W * (V @ H.T) / (W @ H @ H.T))
    pb.output(W); pb.output(H)

    with DMacSession(ClusterConfig(num_workers=4)) as session:
        result = session.run(pb.build(), inputs={"V": v_array})
    print(result.comm_bytes, result.simulated_seconds)

Leaving the ``with`` block (or calling ``close()``) stops the cluster's host
threads at once; a session that is merely dropped gives them up when it is
garbage-collected, so the un-closed form stays legal.
"""

from __future__ import annotations

import contextlib
import sys

import numpy as np

from repro.config import ClusterConfig
from repro.core.plan import Plan
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import ExecutionError, LintError, PlanError, VerificationError
from repro.frontend.staged import StagedProgram, segments_of
from repro.lang.program import MatrixProgram
from repro.rdd.context import ClusterContext
from repro.runtime.executor import ExecutionResult, PlanExecutor
from repro.runtime.graph import StageGraph, prepare
from repro.runtime.segments import RunResult, SegmentRecord, carried_inputs, fold

#: Session lint modes: "off" skips analysis, "warn" prints findings to
#: stderr, "error" additionally refuses to execute plans with error-severity
#: findings (raising :class:`repro.errors.LintError`).
LINT_MODES = ("off", "warn", "error")

#: Session verify modes: "off" skips static verification, "warn" prints the
#: hazard report to stderr, "error" additionally refuses to execute plans
#: with hazards (raising :class:`repro.errors.VerificationError`).  This is
#: independent of translation validation, which the optimizer always runs.
VERIFY_MODES = ("off", "warn", "error")


class DMacSession(contextlib.AbstractContextManager):
    """Owns a simulated cluster and plans/executes matrix programs on it.

    Metrics (communication ledger, simulated clock, per-worker memory
    peaks) accumulate across runs on the same session; every
    :class:`ExecutionResult` reports its own deltas.  Use a fresh session
    per benchmarked system for clean peaks.
    """

    def __init__(
        self,
        config: ClusterConfig | None = None,
        pull_up_broadcast: bool = True,
        re_assignment: bool = True,
        estimation_mode: str = "worst",
        lint: str = "off",
        verify: str = "off",
        optimize: bool = False,
        trace: bool = False,
    ) -> None:
        if lint not in LINT_MODES:
            raise PlanError(
                f"unknown lint mode {lint!r} (choose from {LINT_MODES})"
            )
        if verify not in VERIFY_MODES:
            raise PlanError(
                f"unknown verify mode {verify!r} (choose from {VERIFY_MODES})"
            )
        self.context = ClusterContext(config)
        #: The context's config: ``num_workers`` is the slot count (the peak
        #: membership of an ``elastic`` timeline), which is what planner,
        #: verifier and lint size against.
        self.config = self.context.config
        self.pull_up_broadcast = pull_up_broadcast
        self.re_assignment = re_assignment
        self.estimation_mode = estimation_mode
        self.lint = lint
        self.verify = verify
        self.optimize = optimize
        #: With ``trace=True`` every run records a full structured trace
        #: (``result.tracing`` is its :class:`~repro.trace.TraceCollector`).
        self.trace = trace

    def close(self) -> None:
        """Close the cluster context (idempotent); results and books stay
        readable, further runs raise :class:`~repro.errors.ClusterError`."""
        self.context.close()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def plan(self, program: MatrixProgram) -> Plan:
        """Generate and stage-schedule the DMac plan for a program.

        With ``optimize=True`` the plan additionally goes through the
        :mod:`repro.planopt` pass pipeline (CSE, repartition coalescing,
        replicated products, dead-step elimination, loop-invariant
        hoisting, fusion) before scheduling, and its product chains are
        associated by the cost model -- the returned plan's ``program``
        is then the reassociated one; applied rewrites are recorded in
        ``plan.rewrites``.
        """
        planner = DMacPlanner(
            program,
            self.config.num_workers,
            pull_up_broadcast=self.pull_up_broadcast,
            re_assignment=self.re_assignment,
            estimation_mode=self.estimation_mode,
        )
        plan = schedule_stages(planner.plan())
        if self.optimize:
            from repro.planopt import optimize_plan

            plan = optimize_plan(
                plan,
                num_workers=self.config.num_workers,
                estimation_mode=self.estimation_mode,
            )
        return plan

    def stage_graph(self, program: MatrixProgram, plan: Plan | None = None):
        """The :class:`~repro.runtime.graph.StageGraph` the runtime would
        schedule for a program (plans it first unless one is supplied)."""
        return StageGraph.from_plan(plan or self.plan(program))

    def plans(self, program: MatrixProgram | StagedProgram) -> tuple[Plan, ...]:
        """One :meth:`plan` per segment of the program, in segment order:
        ``(plan,)`` for a straight-line program, ``(prologue, body)`` for
        a ``while`` loop.  This is what ``run(plan=...)`` takes back."""
        return tuple(
            self.plan(segment) for __, segment in segments_of(program).programs
        )

    def run(
        self,
        program: MatrixProgram | StagedProgram,
        inputs: dict[str, np.ndarray] | None = None,
        plan: Plan | tuple[Plan, ...] | None = None,
        trace: bool = False,
        chaos=None,
    ) -> RunResult:
        """Plan (unless plans are supplied) and execute under DMac.

        ``inputs`` binds each load to a driver-side matrix: a dense array,
        or a :class:`~repro.blocks.CoordinateMatrix`, which is cut into
        blocks without ever being densified.  The form moves host time and
        memory only: outputs and every book are the same bit for bit.

        Every run is a fold over plan executions.  The program is viewed
        as segments (:func:`~repro.frontend.staged.segments_of`): the first
        plan executes once; a ``while`` loop's body -- planned exactly
        once -- then executes again and again, each execution's carried
        outputs bound to the next one's loads, until the driver evaluates
        the condition scalars to false or ``max_segments`` is hit.  A
        straight-line program is the one-execution case.  The executions
        are folded, in order, into one
        :class:`~repro.runtime.segments.RunResult` -- an
        :class:`ExecutionResult` with additive books summed, peaks maxed,
        traces concatenated and outputs under their user names -- and stay
        available on ``result.segments``.

        ``plan`` takes what :meth:`plans` returned (a bare :class:`Plan`
        stands for the 1-tuple), so repeated runs skip planning.
        ``lint``/``verify`` modes other than "off" check every plan before
        anything executes; their error modes refuse to run.  One ``chaos``
        :class:`~repro.faults.ChaosEngine` spans the whole run and
        ``result.recovery`` reports what recovering cost.  A session
        constructed with ``trace=True`` records one
        :class:`~repro.trace.TraceCollector` per execution
        (``result.tracing`` is the last one).
        """
        view = segments_of(program)
        loop = view.loop
        if plan is None:
            plan = self.plans(program)
        plans = (plan,) if isinstance(plan, Plan) else tuple(plan)
        if len(plans) != len(view.programs):
            raise PlanError(
                f"this program runs {len(view.programs)} plan(s), one per "
                f"segment, but {len(plans)} were supplied; pass what "
                "plans(program) returned"
            )
        for each in plans:
            if self.lint != "off":
                self._lint(each)
            if self.verify != "off":
                self._verify(each)
        inputs = dict(inputs or {})
        executor = PlanExecutor(self.context, self.config.block_size)
        records: list[SegmentRecord] = []
        bound = inputs
        while not records or records[-1].continued:
            result = executor.execute(
                plans[min(len(records), len(plans) - 1)],  # the last repeats
                bound,
                trace=trace,
                chaos=chaos,
                tracer=self._collector(),
            )
            if records:
                label = f"segment-{len(records)}"
            else:
                label = view.programs[0][0] or "program"
            continued = loop is not None and loop.condition.evaluate(result.scalars)
            records.append(SegmentRecord(label, result, continued))
            if continued:
                if len(records) > loop.max_segments:
                    raise ExecutionError(
                        f"staged program {loop.name!r} did not converge within "
                        f"{loop.max_segments} segments "
                        f"(while {loop.condition.describe()})"
                    )
                bound = carried_inputs(
                    loop,
                    inputs,
                    records[0].result,
                    result if len(records) > 1 else None,
                )
        return fold(loop, records)

    def _collector(self):
        """A fresh TraceCollector per execution on a ``trace=True`` session."""
        if not self.trace:
            return None
        from repro.trace import TraceCollector

        return TraceCollector()

    def _lint(self, plan: Plan) -> None:
        from repro.lint import LintContext, lint_plan

        record = prepare(self.context, plan, estimation_mode=self.estimation_mode)
        report = lint_plan(
            plan,
            LintContext.from_config(self.config, self.estimation_mode),
            graph=record.graph,
        )
        if not report.diagnostics:
            return
        if self.lint == "error" and report.has_errors:
            raise LintError(
                "plan failed static analysis:\n" + report.format_human()
            )
        print(report.format_human(), file=sys.stderr)

    def _verify(self, plan: Plan) -> None:
        from repro.verify import find_hazards, verify_plan

        record = prepare(self.context, plan, estimation_mode=self.estimation_mode)
        if not find_hazards(record.graph):
            return  # the report is only ever shown for its hazards
        report = verify_plan(
            plan,
            num_workers=self.config.num_workers,
            threads_per_worker=self.config.threads_per_worker,
            block_size=self.config.block_size,
            inplace=self.config.inplace,
            max_concurrent_stages=self.config.max_concurrent_stages,
            estimation_mode=self.estimation_mode,
        )
        if self.verify == "error":
            raise VerificationError(
                "plan failed static verification:\n" + report.format_human()
            )
        print(report.format_human(), file=sys.stderr)

    def run_systemml(
        self,
        program: MatrixProgram,
        inputs: dict[str, np.ndarray] | None = None,
    ) -> ExecutionResult:
        """Execute the same program under the SystemML-S baseline, on this
        session's cluster (same engines, same metered substrate)."""
        from repro.baselines.systemml import SystemMLSExecutor

        if self.context.pool.events:
            raise ExecutionError(
                "the SystemML-S baseline runs on a static cluster; "
                "compare against a session without an elastic timeline"
            )
        executor = SystemMLSExecutor(self.context, self.config.block_size)
        return executor.execute(program, inputs)
