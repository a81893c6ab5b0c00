"""The runtime executor: stage-graph execution of DMac plans.

An execution flows through the runtime's parts:

1. the plan is folded into a :class:`~repro.runtime.graph.StageGraph`,
2. the :class:`~repro.runtime.scheduler.StageScheduler` dispatches ready
   nodes concurrently; each node runs its steps through the operator
   registry's kernels, which make their physical calls on a
   :class:`~repro.runtime.backend.SimulatedBackend` (or any object with its
   kernel methods) and read everything else of the cluster from the
   :class:`~repro.rdd.context.ClusterContext`,
3. matrix lifetimes are reference counts held by a
   :class:`~repro.runtime.resources.ResourceManager` (released exactly
   once, also on mid-run failure),
4. per-node :class:`~repro.runtime.metering.StageMeter` measurements are
   folded into the simulated clock as *critical-path* time.

Ledgered bytes equal a serial step loop's -- same kernels, same scopes --
only the simulated seconds reflect stage overlap.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import threading
import time

import numpy as np

from repro.core.plan import MatrixInstance, Plan
from repro.errors import ExecutionError
from repro.matrix.distributed import DistributedMatrix
from repro.rdd.clock import TimeBreakdown
from repro.rdd.context import ClusterContext
from repro.rdd.sizeof import model_sizeof
from repro.runtime.backend import SimulatedBackend
from repro.runtime.graph import StageNode, prepare
from repro.runtime.metering import StageMeter, metered
from repro.runtime.registry import spec_for
from repro.runtime.resources import BlockCache, ResourceManager
from repro.runtime.scalars import evaluate_scalar  # noqa: F401  (re-export)
from repro.runtime.scheduler import SchedulerReport, StageScheduler, StageTiming
from repro.trace.emit import active_tracer, install_tracer, stage_scope


@dataclasses.dataclass(frozen=True)
class StepTrace:
    """Per-step record collected when executing with ``trace=True``."""

    step: str
    stage: int
    comm_bytes: int
    flops: int
    wall_seconds: float


@dataclasses.dataclass
class ExecutionResult:
    """Everything a run produced and what it cost."""

    matrices: dict[str, np.ndarray]  # program outputs, by version name
    scalars: dict[str, float]  # requested driver scalars
    comm_bytes: int  # metered cross-worker traffic of this run
    time: TimeBreakdown  # simulated seconds (network/compute/overhead)
    num_stages: int
    peak_memory_bytes: int  # largest per-worker model-byte peak
    wall_seconds: float  # real elapsed time of the in-process run
    trace: list[StepTrace] | None = None  # per-step records (trace=True)
    stage_timings: list[StageTiming] | None = None  # simulated stage schedule
    critical_path: tuple[int, ...] = ()  # stage-graph nodes charged to the clock
    recovery: dict | None = None  # fault/recovery summary (chaos runs only)
    cache: dict | None = None  # BlockCache stats (plans with cache_pins only)
    #: The run's TraceCollector when executed with a tracer installed
    #: (``repro.trace``); ``None`` otherwise.
    tracing: object | None = None
    #: Static per-worker peak-memory bound from :mod:`repro.verify.memory`,
    #: computed before execution under this run's exact block size and
    #: concurrency; ``None`` if the prediction was unavailable.
    predicted_peak_memory_bytes: int | None = None
    #: Membership summary (slots, events fired, worker-seconds, rebalance
    #: traffic); on a static cluster it has no events and worker-seconds
    #: equal slot-seconds.
    elastic: dict | None = None

    @property
    def simulated_seconds(self) -> float:
        return self.time.total_seconds

    @property
    def batched_pairs(self) -> int:
        """Always 0: every block product is one ``ops.matmul`` call and
        no engine batches block pairs.  Kept only because the e2e
        benchmark's ``kernels.batched_pairs`` row
        (``benchmarks/e2e/jobs.py``) reads it."""
        return 0

    def comm_by_stage(self) -> dict[int, int]:
        """Measured bytes per stage (requires a traced run)."""
        if self.trace is None:
            raise ExecutionError("run with trace=True to get per-stage traffic")
        out: dict[int, int] = {}
        for record in self.trace:
            out[record.stage] = out.get(record.stage, 0) + record.comm_bytes
        return out


class ExecutionState:
    """Shared mutable state of one plan execution (thread-safe where two
    concurrently running stages can touch it)."""

    def __init__(
        self,
        context: ClusterContext,
        backend: SimulatedBackend,
        resources: ResourceManager,
        inputs: dict[str, np.ndarray],
        block_size: int,
        labels: tuple[str, ...],
    ) -> None:
        self.context = context
        self.backend = backend
        self.resources = resources
        self.inputs = inputs
        self.block_size = block_size
        self.labels = labels  # ``str(step)`` by plan index, from ``prepare``
        self._lock = threading.Lock()
        self._scalars: dict[str, float] = {}
        self._traces: dict[int, StepTrace] = {}
        self._completed: set[int] = set()
        #: Source instance -> model bytes its fullest worker holds once cut.
        self.cut: dict[MatrixInstance, int] = {}

    def record_cut(self, instance: MatrixInstance, matrix: DistributedMatrix) -> None:
        """Note what a freshly cut (or re-cut) source holds on its fullest
        worker."""
        rdd, by_worker = matrix.rdd, collections.Counter()
        for index in range(rdd.num_partitions):
            by_worker[matrix.context.worker_for_partition(index)] += sum(
                model_sizeof(block) for __, block in rdd.partition(index)
            )
        held = max(by_worker.values(), default=0)
        with self._lock:
            self.cut[instance] = max(held, self.cut.get(instance, 0))

    # -- step completion (retry support) -------------------------------------

    def is_step_completed(self, plan_index: int) -> bool:
        with self._lock:
            return plan_index in self._completed

    def mark_step_completed(self, plan_index: int) -> None:
        with self._lock:
            self._completed.add(plan_index)

    # -- driver scalars ------------------------------------------------------

    def get_scalar(self, name: str) -> float:
        with self._lock:
            if name not in self._scalars:
                raise ExecutionError(f"scalar {name!r} referenced before computation")
            return self._scalars[name]

    def set_scalar(self, name: str, value: float) -> None:
        with self._lock:
            self._scalars[name] = value

    def scalars_snapshot(self) -> dict[str, float]:
        with self._lock:
            return dict(self._scalars)

    # -- tracing -------------------------------------------------------------

    def record_trace(self, plan_index: int, trace: StepTrace) -> None:
        with self._lock:
            self._traces[plan_index] = trace

    def traces_in_plan_order(self) -> list[StepTrace]:
        with self._lock:
            return [self._traces[i] for i in sorted(self._traces)]


class PlanExecutor:
    """Executes DMac plans on a :class:`~repro.rdd.context.ClusterContext`
    via the stage scheduler.

    The kernels' backend defaults to ``context.make_backend()``; a wrapper
    that delegates its kernel methods sees every physical call of a run.
    """

    def __init__(
        self,
        context: ClusterContext,
        block_size: int | None = None,
        max_concurrent_stages: int | None = None,
        backend: SimulatedBackend | None = None,
    ) -> None:
        self.context = context
        self.backend = backend if backend is not None else context.make_backend()
        self.block_size = (
            block_size if block_size is not None else context.config.block_size
        )
        if max_concurrent_stages is None:
            max_concurrent_stages = context.config.max_concurrent_stages
        if context.pool.events:
            # Runs with a membership timeline dispatch serially: transitions
            # fire between stage-graph nodes in one deterministic order.  The
            # simulated schedule still reflects dependency-bound overlap.
            max_concurrent_stages = 1
        self.max_concurrent_stages = max_concurrent_stages

    def execute(
        self,
        plan: Plan,
        inputs: dict[str, np.ndarray] | None = None,
        trace: bool = False,
        chaos=None,
        tracer=None,
    ) -> ExecutionResult:
        """Run ``plan``; ``inputs`` binds LoadOp names to driver arrays.
        With ``trace=True`` the result carries a per-step record of bytes,
        flops and wall time.  ``chaos`` installs a
        :class:`~repro.faults.ChaosEngine`: injected faults fire at the
        engine's named points, the scheduler retries retryable ones, and
        lost blocks are recomputed through their lineage cone; the result's
        ``recovery`` field summarises what happened.  With ``chaos=None``
        (the default) every fault path is inert and the run is bit-identical
        to one without this machinery.  ``tracer`` installs a
        :class:`~repro.trace.TraceCollector` for the duration of the run
        (returned on ``result.tracing``); with ``tracer=None`` every emit
        site is inert, same discipline as ``chaos``."""
        if tracer is not None:
            with install_tracer(tracer):
                return self._execute(plan, inputs, trace, chaos, tracer)
        return self._execute(plan, inputs, trace, chaos, None)

    def _execute(
        self,
        plan: Plan,
        inputs: dict[str, np.ndarray] | None,
        trace: bool,
        chaos,
        tracer,
    ) -> ExecutionResult:
        inputs = inputs or {}
        context = self.context
        config = context.config
        graph, block_size, prediction, labels = prepare(
            context,
            plan,
            block_size=self.block_size,
            max_concurrent_stages=self.max_concurrent_stages,
        )
        cache = None
        if plan.cache_pins:
            budget = config.cache_limit_bytes
            if budget is None:
                budget = config.memory_limit_bytes
            cache = BlockCache(plan.cache_pins, context, budget_bytes=budget)
        pool = context.pool
        if pool.events and chaos is None:
            # A leave loses blocks that only lineage recovery can rebuild,
            # so runs with a timeline always execute under the recovery
            # machinery; an engine with no fault clauses never fires,
            # keeping clean runs deterministic.
            from repro.faults.chaos import ChaosEngine

            chaos = ChaosEngine(pool.seed, ())
        scheduler_kwargs: dict = dict(lanes=context.lanes)
        recovery_log = None
        checkpoints = None
        if chaos is not None:
            # Imported lazily: repro.faults sits above the runtime in the
            # layer diagram and must not be a hard import of the executor.
            from repro.faults.recovery import CheckpointStore
            from repro.faults.report import RecoveryLog, summarise_recovery

            recovery_log = RecoveryLog()
            chaos.attach_sink(recovery_log.record)
            recovery_config = config.recovery
            if recovery_config.checkpoint_every > 0:
                checkpoints = CheckpointStore(
                    every=recovery_config.checkpoint_every,
                    clock=context.clock,
                    log=recovery_log,
                )
            scheduler_kwargs.update(
                max_attempts=recovery_config.max_stage_attempts,
                backoff_base_sec=recovery_config.backoff_base_sec,
                backoff_cap_sec=recovery_config.backoff_cap_sec,
                speculation_multiplier=recovery_config.speculation_multiplier,
                event_sink=recovery_log.record,
            )
            context.install_chaos(chaos)
        resources = ResourceManager(
            plan,
            max_events=config.resource_event_log_limit,
            cache=cache,
            chaos=chaos,
            checkpoints=checkpoints,
            recovery_log=recovery_log,
            defuse=graph.defuse,
        )
        state = ExecutionState(
            context=context,
            backend=self.backend,
            resources=resources,
            inputs=inputs,
            block_size=block_size,
            labels=labels,
        )
        resources.bind_state(state)
        # Keyed by member id, not slot position: a member owning several
        # slots reports all their flops on its one engine.
        worker_of_stats = {
            id(context.engine_for_worker(worker).stats): worker
            for worker in context.workers()
        }

        ledger, clock = context.ledger, context.clock
        bytes_before = ledger.snapshot()
        elastic_events_before = len(pool.applied_log)
        rebalance_before = context.rebalance_bytes
        records_before = len(ledger.records()) if tracer is not None else 0
        clock_window = clock.begin_window() if tracer is not None else None
        wall_start = time.perf_counter()
        scheduler = StageScheduler(self.max_concurrent_stages, **scheduler_kwargs)
        plan_span = (
            tracer.begin_span("plan", "plan", num_stages=plan.num_stages)
            if tracer is not None
            else None
        )
        try:
            report = scheduler.run(
                graph,
                lambda node: self._run_node(
                    node, plan, state, worker_of_stats, trace, chaos
                ),
            )
            matrices = self._materialise_outputs(plan, state)
            cache_stats = cache.stats() if cache is not None else None
        except BaseException:
            if clock_window is not None:
                clock.end_window(clock_window)
            raise
        finally:
            if plan_span is not None:
                tracer.end_span(plan_span)
            state.resources.close()
            # Cut the state <-> resources cycle: dropping a session frees it.
            resources.bind_state(None)
            if chaos is not None:
                context.install_chaos(None)
        clock.advance(report.elapsed)
        if tracer is not None:
            tracer.apply_schedule(report.timings, report.critical_path)
            tracer.attach_elapsed(report.elapsed)
            tracer.attach_ledger_window(ledger.records()[records_before:])
            window = clock.end_window(clock_window)
            tracer.attach_clock_delta(
                window.network_seconds,
                window.compute_seconds,
                window.overhead_seconds,
            )

        recovery = None
        if chaos is not None:
            recovery = summarise_recovery(
                log=recovery_log,
                resources=resources,
                checkpoints=checkpoints,
            )
        elastic = context.elastic_summary(
            report,
            events_from=elastic_events_before,
            rebalance_bytes_before=rebalance_before,
        )
        # Staged programs run segment after segment on one pool; event
        # stages index the cumulative stage count.
        pool.finish_segment(plan.num_stages)
        scalars = state.scalars_snapshot()
        return ExecutionResult(
            matrices=matrices,
            scalars={name: scalars[name] for name in plan.program.scalar_outputs},
            comm_bytes=ledger.snapshot() - bytes_before,
            time=dataclasses.replace(report.elapsed),
            num_stages=plan.num_stages,
            peak_memory_bytes=context.peak_memory_bytes(),
            wall_seconds=time.perf_counter() - wall_start,
            trace=state.traces_in_plan_order() if trace else None,
            stage_timings=report.timings,
            critical_path=report.critical_path,
            recovery=recovery,
            cache=cache_stats,
            tracing=tracer,
            # Never fatal: a plan the analyser cannot size reports ``None``.
            predicted_peak_memory_bytes=prediction and prediction.bound_as_cut(state.cut),
            elastic=elastic,
        )

    # -- one stage-graph node ------------------------------------------------

    def _run_node(
        self,
        node: StageNode,
        plan: Plan,
        state: ExecutionState,
        worker_of_stats: dict[int, int],
        trace: bool,
        chaos=None,
    ) -> StageMeter:
        meter = StageMeter()
        tracer = active_tracer()
        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    # One stage span per *attempt* (retries open a new one);
                    # sim times are assigned post-run from the schedule.
                    stack.enter_context(
                        tracer.span(
                            "stage",
                            f"stage-{node.stage}",
                            node=node.index,
                            stage=node.stage,
                        )
                    )
                    stack.enter_context(stage_scope(node.index, node.stage))
                stack.enter_context(metered(meter))
                if chaos is not None:
                    stack.enter_context(chaos.stage_scope(node))
                    chaos.on_stage_start()  # may raise an injected crash
                    meter.slowdown_factor = chaos.slowdown_factor()
                # Membership transitions due before this stage: applied under
                # the node's meter and chaos scope, so rebalance traffic is
                # charged (and fault-injectable) like any other stage work.
                self.context.begin_node(node, state.resources)
                self._run_steps(node, plan, state, worker_of_stats, trace, meter)
        except BaseException as error:
            # The failed attempt's metered cost: the scheduler charges it to
            # the node's simulated duration even though the attempt failed.
            error.stage_meter = meter  # type: ignore[attr-defined]
            raise
        return meter

    def _run_steps(
        self,
        node: StageNode,
        plan: Plan,
        state: ExecutionState,
        worker_of_stats: dict[int, int],
        trace: bool,
        meter: StageMeter,
    ) -> None:
        ledger, clock = self.context.ledger, self.context.clock
        threads = self.context.config.threads_per_worker
        tracer = active_tracer()
        clock.advance_stage_overhead(1)
        for plan_index in node.steps:
            if state.is_step_completed(plan_index):
                continue  # a retried node re-runs only its unfinished steps
            step, label = plan.steps[plan_index], state.labels[plan_index]
            step_wall = time.perf_counter()
            step_span = (
                tracer.begin_span(
                    "step",
                    label,
                    node=node.index,
                    stage=step.stage,
                    plan_index=plan_index,
                    # Where within the node's metered duration this step
                    # starts: placed on the simulated timeline post-run.
                    sim_offset=meter.total_seconds,
                )
                if tracer is not None
                else None
            )
            kernel = spec_for(step).kernel
            try:
                with ledger.scope(f"stage-{step.stage}"):
                    with ledger.scope(label):
                        kernel(step, state)
                dense: dict[int, int] = {}
                sparse: dict[int, int] = {}
                flops = 0
                for stats, dense_flops, sparse_flops in meter.take_step_flops():
                    worker = worker_of_stats.get(id(stats))
                    if worker is None:  # pragma: no cover - foreign stats object
                        continue
                    dense[worker] = dense.get(worker, 0) + dense_flops
                    sparse[worker] = sparse.get(worker, 0) + sparse_flops
                    flops += dense_flops + sparse_flops
                clock.advance_compute(dense, sparse, threads)
                step_bytes = meter.take_step_bytes()
            except BaseException:
                if step_span is not None:  # keep spans balanced on faults
                    tracer.end_span(step_span)
                raise
            if step_span is not None:
                tracer.end_span(
                    step_span,
                    sim_duration=meter.total_seconds - step_span.attrs["sim_offset"],
                    bytes=step_bytes,
                    flops=flops,
                )
            if trace:
                state.record_trace(
                    plan_index,
                    StepTrace(
                        step=label,
                        stage=step.stage,
                        comm_bytes=step_bytes,
                        flops=flops,
                        wall_seconds=time.perf_counter() - step_wall,
                    ),
                )
            state.resources.consume(step)
            state.mark_step_completed(plan_index)

    def _materialise_outputs(
        self, plan: Plan, state: ExecutionState
    ) -> dict[str, np.ndarray]:
        matrices: dict[str, np.ndarray] = {}
        for name, instance in plan.outputs.items():
            matrix = self._output_matrix(state, instance)
            array = matrix.to_numpy()
            matrices[name] = array.T if instance.transposed else array
            state.resources.release_output(instance)
        return matrices

    @staticmethod
    def _output_matrix(
        state: ExecutionState, instance: MatrixInstance
    ) -> DistributedMatrix:
        try:
            return state.resources.get(instance)
        except ExecutionError:
            raise ExecutionError(
                f"output instance {instance} was freed or never built"
            ) from None


__all__ = [
    "ExecutionResult",
    "ExecutionState",
    "PlanExecutor",
    "SchedulerReport",
    "StepTrace",
    "evaluate_scalar",
]
