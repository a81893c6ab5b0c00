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

    session = DMacSession(ClusterConfig(num_workers=4))
    result = session.run(pb.build(), inputs={"V": v_array})
    print(result.comm_bytes, result.simulated_seconds)
"""

from __future__ import annotations

import sys

import numpy as np

from repro.baselines.systemml import SystemMLSExecutor
from repro.config import ClusterConfig
from repro.core.plan import Plan
from repro.core.planner import DMacPlanner
from repro.core.stages import schedule_stages
from repro.errors import ExecutionError, LintError, PlanError, VerificationError
from repro.frontend.staged import StagedProgram
from repro.lang.program import MatrixProgram
from repro.rdd.context import ClusterContext
from repro.runtime.executor import ExecutionResult, PlanExecutor

#: Session lint modes: "off" skips analysis, "warn" prints findings to
#: stderr, "error" additionally refuses to execute plans with error-severity
#: findings (raising :class:`repro.errors.LintError`).
LINT_MODES = ("off", "warn", "error")

#: Session verify modes: "off" skips static verification, "warn" prints the
#: hazard report to stderr, "error" additionally refuses to execute plans
#: with hazards (raising :class:`repro.errors.VerificationError`).  This is
#: independent of translation validation, which the optimizer always runs.
VERIFY_MODES = ("off", "warn", "error")


class DMacSession:
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

    def plan(self, program: MatrixProgram) -> Plan:
        """Generate and stage-schedule the DMac plan for a program.

        With ``optimize=True`` the plan additionally goes through the
        :mod:`repro.planopt` pass pipeline (CSE, repartition coalescing,
        dead-step elimination, loop-invariant hoisting) before scheduling;
        applied rewrites are recorded in ``plan.rewrites``.
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
        from repro.runtime.graph import StageGraph

        return StageGraph.from_plan(plan or self.plan(program))

    def run(
        self,
        program: MatrixProgram | StagedProgram,
        inputs: dict[str, np.ndarray] | None = None,
        plan: Plan | None = None,
        trace: bool = False,
        chaos=None,
        tracer=None,
    ) -> ExecutionResult:
        """Plan (unless a plan is supplied) and execute under DMac.

        With ``lint="warn"`` or ``lint="error"``, the plan is statically
        analysed first; error mode refuses to execute a plan carrying
        error-severity findings.  ``verify="warn"``/``"error"`` likewise
        runs the :mod:`repro.verify` suite (hazard detection, certificate
        audit, peak-memory prediction) before execution; error mode
        refuses plans with ordering hazards.

        ``chaos`` installs a :class:`~repro.faults.ChaosEngine` for the
        run: its faults fire at their seeded points, the runtime recovers
        (retries, lineage recomputation, checkpoints), and the result's
        ``recovery`` field reports what that cost.

        ``tracer`` installs a :class:`~repro.trace.TraceCollector` for the
        run; a session constructed with ``trace=True`` creates one per run
        automatically.  Either way the collector comes back on
        ``result.tracing``.

        A :class:`~repro.frontend.staged.StagedProgram` (a frontend
        ``while``-convergence program) is dispatched to
        :meth:`run_staged`; its result quacks like an
        :class:`ExecutionResult` for the common fields.
        """
        if isinstance(program, StagedProgram):
            if plan is not None:
                raise PlanError(
                    "staged programs plan their own segments; "
                    "run() cannot take a pre-built plan for one"
                )
            if tracer is not None:
                raise PlanError(
                    "staged programs collect one tracer per segment; "
                    "construct the session with trace=True instead of "
                    "passing a tracer"
                )
            return self.run_staged(  # type: ignore[return-value]
                program, inputs, trace=trace, chaos=chaos
            )
        plan = plan or self.plan(program)
        if self.lint != "off":
            self._lint(plan)
        if self.verify != "off":
            self._verify(plan)
        if tracer is None and self.trace:
            from repro.trace import TraceCollector

            tracer = TraceCollector()
        executor = PlanExecutor(self.context, self.config.block_size)
        return executor.execute(plan, inputs, trace=trace, chaos=chaos, tracer=tracer)

    def run_staged(
        self,
        staged: StagedProgram,
        inputs: dict[str, np.ndarray] | None = None,
        trace: bool = False,
        chaos=None,
        prologue_plan: Plan | None = None,
        body_plan: Plan | None = None,
    ):
        """Execute a while-convergence program by dynamic plan extension.

        The prologue runs first; then the loop body -- planned exactly
        once, the plan re-used -- runs segment after segment, each
        segment's carried outputs bound to the next segment's loads, until
        the driver evaluates the condition scalars (``_while_lhs`` /
        ``_while_rhs``) to false or ``staged.max_segments`` is hit.  Every
        segment goes through the session's full static stack: lint and
        verify modes fire per segment, ``trace=True`` sessions collect a
        fresh reconciled :class:`~repro.trace.TraceCollector` per segment,
        and one ``chaos`` engine spans the whole run (its faults land in
        whichever segment reaches the seeded points).

        ``prologue_plan``/``body_plan`` inject pre-built segment plans
        (e.g. from the :mod:`repro.serve` plan cache) so repeated staged
        submissions skip planning; omitted segments are planned here.

        Returns a :class:`~repro.runtime.segments.StagedResult`.
        """
        from repro.runtime.segments import SegmentRecord, aggregate, carried_inputs

        inputs = dict(inputs or {})
        prologue_plan = prologue_plan or self.plan(staged.prologue)
        body_plan = body_plan or self.plan(staged.body)
        prologue_result = self.run(
            staged.prologue, inputs, plan=prologue_plan, trace=trace, chaos=chaos
        )
        keep_going = staged.condition.evaluate(prologue_result.scalars)
        records = [SegmentRecord("prologue", prologue_result, keep_going)]
        previous: ExecutionResult | None = None
        while keep_going:
            if len(records) - 1 >= staged.max_segments:
                raise ExecutionError(
                    f"staged program {staged.name!r} did not converge within "
                    f"{staged.max_segments} segments "
                    f"(while {staged.condition.describe()})"
                )
            bound = carried_inputs(staged, inputs, prologue_result, previous)
            segment_result = self.run(
                staged.body, bound, plan=body_plan, trace=trace, chaos=chaos
            )
            keep_going = staged.condition.evaluate(segment_result.scalars)
            records.append(
                SegmentRecord(f"segment-{len(records)}", segment_result, keep_going)
            )
            previous = segment_result
        return aggregate(staged, records)

    def _lint(self, plan: Plan) -> None:
        from repro.lint import LintContext, lint_plan

        report = lint_plan(
            plan, LintContext.from_config(self.config, self.estimation_mode)
        )
        if not report.diagnostics:
            return
        if self.lint == "error" and report.has_errors:
            raise LintError(
                "plan failed static analysis:\n" + report.format_human()
            )
        print(report.format_human(), file=sys.stderr)

    def _verify(self, plan: Plan) -> None:
        from repro.verify import verify_plan

        report = verify_plan(
            plan,
            num_workers=self.config.num_workers,
            threads_per_worker=self.config.threads_per_worker,
            block_size=self.config.block_size,
            inplace=self.config.inplace,
            max_concurrent_stages=self.config.max_concurrent_stages,
            estimation_mode=self.estimation_mode,
        )
        if not report.has_errors:
            return
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
        if self.context.pool.events:
            raise ExecutionError(
                "the SystemML-S baseline runs on a static cluster; "
                "compare against a session without an elastic timeline"
            )
        executor = SystemMLSExecutor(self.context, self.config.block_size)
        return executor.execute(program, inputs)
