"""The stage scheduler: dispatch ready stages concurrently, charge the
critical path.

Execution model.  Stage-graph nodes are dispatched as soon as every
dependency has finished (Kahn-style ready set, smallest index first, at
most ``min(max_concurrent, lanes.width)`` in flight: ``max_concurrent``
bounds the model's overlap, the pool's width what the host can overlap)
onto the cluster context's one :class:`~repro.localexec.lanes.LanePool` --
or, when exactly one node can start and nothing is in flight (every chain,
and every run whose bound is one -- ``max_concurrent=1`` or a one-CPU host
-- whose nodes therefore execute in index order), on the dispatching
thread itself.  Each node runs
under its own :class:`~repro.runtime.metering.StageMeter`, so its simulated
duration (network + compute + per-stage overhead) is measured privately
even while other nodes run on sibling threads; ledgered *bytes* still flow
to the global ledger and stay identical to a serial run.

Simulated time.  Real stage overlap on the host is incidental -- what the
paper's clock should report is the dependency-bound schedule: a node starts
when its slowest dependency finishes, and the run ends when the last node
does (max over concurrent chains, not the serial sum).  The event times are
computed from the measured per-node durations and the dependency structure
alone, assuming one stage per cluster dispatch slot, so the reported
seconds are deterministic -- independent of host thread count, pool width
or completion order.  The critical path (the chain realising the final
finish time) is committed to the global clock, split by cause.

Failure and retry.  A node whose attempt raises a *retryable* error (duck
typing: ``error.retryable`` is true -- set by the injected transient faults
of :mod:`repro.faults`) is re-run on the same thread after a capped
exponential backoff, up to ``max_attempts`` total tries; the backoff and
the failed attempts' metered cost are charged to the node's simulated
duration.  Genuine (non-retryable) errors fail fast.  The first final
failure stops new submissions; running nodes are drained, resources are
left to the executor's cleanup, and the failure is re-raised wrapped in a
:class:`~repro.errors.StageExecutionError` carrying the node id, stage,
step kinds and attempt count (the original exception is chained as
``__cause__``).

Speculation.  With ``speculation_multiplier`` N > 0, a node whose slowed
duration exceeds N x the median *clean* duration of its same-stage siblings is
re-simulated as if a speculative copy had been launched at that threshold
on a healthy worker: the node's effective duration becomes the minimum of
its slowed duration and ``threshold + clean duration`` (first finisher
wins; the loser's remaining time is not charged).  With no straggler
slowdown, slowed == clean and speculation never changes anything.

Each retry and each speculative copy is one event through
:func:`repro.trace.emit.emit`: a chaos run's record and the tracer see it.
"""

from __future__ import annotations

import dataclasses
import heapq
import statistics
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Callable

from repro.errors import StageExecutionError
from repro.localexec.lanes import LanePool
from repro.rdd.clock import TimeBreakdown
from repro.runtime.graph import StageGraph, StageNode
from repro.runtime.metering import StageMeter
from repro.trace.emit import emit

#: Upper bound on concurrently dispatched stages when the config does not
#: pin one.  Stage concurrency is about overlapping *simulated* stages, not
#: saturating host cores (no more nodes are in flight than the lane pool is
#: wide, whatever this says), so a modest width is plenty.
DEFAULT_MAX_CONCURRENT_STAGES = 8

#: Simulated backoff before a node's second attempt; it doubles per retry
#: up to :data:`BACKOFF_CAP_SEC`.
BACKOFF_BASE_SEC = 1.0
#: Upper bound on a single backoff interval.
BACKOFF_CAP_SEC = 30.0


@dataclasses.dataclass(frozen=True)
class StageTiming:
    """Simulated schedule entry for one stage-graph node."""

    node: int
    stage: int
    duration: TimeBreakdown  # this node's own metered cost
    start_seconds: float  # when its last dependency finished
    finish_seconds: float

    @property
    def duration_seconds(self) -> float:
        return self.duration.total_seconds


@dataclasses.dataclass
class NodeRun:
    """What physically happened while running one node (all attempts)."""

    meters: list[StageMeter]  # one per attempt, successful attempt last
    attempts: int
    backoff_seconds: float  # total simulated retry backoff


@dataclasses.dataclass
class SchedulerReport:
    """What one scheduled run measured."""

    timings: list[StageTiming]  # indexed by node
    critical_path: tuple[int, ...]  # node indices realising the makespan
    elapsed: TimeBreakdown  # summed along the critical path

    @property
    def makespan_seconds(self) -> float:
        return self.elapsed.total_seconds

    def serial_seconds(self) -> float:
        """What the old serial clock would have charged (sum of all nodes)."""
        return sum(t.duration_seconds for t in self.timings)


class StageScheduler:
    """Runs a :class:`StageGraph`'s nodes with bounded concurrency."""

    def __init__(
        self,
        max_concurrent: int | None = None,
        *,
        max_attempts: int = 1,
        speculation_multiplier: float = 0.0,
        lanes: LanePool | None = None,
    ) -> None:
        if max_concurrent is not None and max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if speculation_multiplier < 0:
            raise ValueError(
                f"speculation_multiplier must be >= 0, got {speculation_multiplier}"
            )
        self.max_concurrent = max_concurrent or DEFAULT_MAX_CONCURRENT_STAGES
        self._lanes = lanes if lanes is not None else LanePool()
        self.max_attempts = max_attempts
        self.speculation_multiplier = speculation_multiplier

    def run(
        self,
        graph: StageGraph,
        run_node: Callable[[StageNode], StageMeter],
    ) -> SchedulerReport:
        """Execute every node (``run_node`` returns its meter); the first
        final failure is wrapped in :class:`StageExecutionError` and raised
        after in-flight nodes drain."""
        runs = self._dispatch(graph, run_node)
        return self._simulate(graph, runs)

    # -- physical dispatch ---------------------------------------------------

    def _dispatch(
        self,
        graph: StageGraph,
        run_node: Callable[[StageNode], StageMeter],
    ) -> list[NodeRun]:
        nodes = graph.nodes
        runs: list[NodeRun | None] = [None] * len(nodes)
        waiting = {node.index: len(node.deps) for node in nodes}
        ready = sorted(i for i, n in waiting.items() if n == 0)  # a valid heap
        running: dict[Future, int] = {}
        failures: list[BaseException] = []
        bound = min(self.max_concurrent, self._lanes.width)
        while ready or running:
            room = min(len(ready), bound - len(running))
            # One node to start, none in flight: nothing to overlap, run it here;
            # either way under a copy of this thread's context (ledger scopes).
            inline = room == 1 and not running
            for __ in range(room):
                node = nodes[heapq.heappop(ready)]
                future = self._lanes.submit(self._attempt, node, run_node, inline=inline)
                running[future] = node.index
            done, __ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                index = running.pop(future)
                if (error := future.exception()) is not None:
                    failures.append(error)
                    continue
                runs[index] = future.result()
                for dependent in nodes[index].dependents:
                    waiting[dependent] -= 1
                    if waiting[dependent] == 0:
                        heapq.heappush(ready, dependent)
            if failures:
                ready.clear()  # submit nothing more, drain what runs
        if failures:
            raise self._wrap(failures[0], graph) from failures[0]
        return runs  # type: ignore[return-value]

    def _attempt(
        self,
        node: StageNode,
        run_node: Callable[[StageNode], StageMeter],
    ) -> NodeRun:
        """Run one node with retry-on-retryable-fault and capped backoff."""
        failed_meters: list[StageMeter] = []
        backoff_total = 0.0
        attempt = 1
        while True:
            try:
                meter = run_node(node)
            except BaseException as error:
                failed = getattr(error, "stage_meter", None)
                if failed is not None:
                    failed_meters.append(failed)
                retryable = bool(getattr(error, "retryable", False))
                if not retryable or attempt >= self.max_attempts:
                    # Carry context for the wrapping at the dispatch level.
                    error._repro_node = node  # type: ignore[attr-defined]
                    error._repro_attempts = attempt  # type: ignore[attr-defined]
                    raise
                backoff = min(
                    BACKOFF_BASE_SEC * (2.0 ** (attempt - 1)), BACKOFF_CAP_SEC
                )
                backoff_total += backoff
                emit(
                    {
                        "event": "retry",
                        "node": node.index,
                        "stage": node.stage,
                        "attempt": attempt,
                        "backoff_sec": backoff,
                        "error": type(error).__name__,
                        "detail": str(error),
                    }
                )
                attempt += 1
            else:
                return NodeRun(
                    meters=failed_meters + [meter],
                    attempts=attempt,
                    backoff_seconds=backoff_total,
                )

    def _wrap(self, error: BaseException, graph: StageGraph) -> StageExecutionError:
        node = getattr(error, "_repro_node", None)
        attempts = getattr(error, "_repro_attempts", 1)
        index = node.index if node is not None else None
        stage = node.stage if node is not None else None
        step_kinds: tuple[str, ...] = ()
        if node is not None and getattr(graph, "plan", None) is not None:
            step_kinds = tuple(
                sorted({type(graph.plan.steps[i]).__name__ for i in node.steps})
            )
        where = f"node {index} (stage {stage})" if node is not None else "a node"
        return StageExecutionError(
            f"stage-graph {where} failed after {attempts} attempt(s): {error}",
            node=index,
            stage=stage,
            step_kinds=step_kinds,
            attempts=attempts,
            cause=error,
        )

    # -- simulated schedule --------------------------------------------------

    def _simulate(self, graph: StageGraph, runs: list[NodeRun]) -> SchedulerReport:
        durations = [self._node_duration(run) for run in runs]
        if self.speculation_multiplier > 0:
            durations = self._speculate(graph, runs, durations)

        timings: list[StageTiming] = []
        finish = [0.0] * len(runs)
        for node in graph.nodes:  # indices are topological
            duration = durations[node.index]
            start = max((finish[dep] for dep in node.deps), default=0.0)
            finish[node.index] = start + duration.total_seconds
            timings.append(
                StageTiming(
                    node=node.index,
                    stage=node.stage,
                    duration=duration,
                    start_seconds=start,
                    finish_seconds=finish[node.index],
                )
            )

        critical = self._critical_path(graph, timings, finish)
        elapsed = TimeBreakdown()
        for index in critical:
            duration = timings[index].duration
            elapsed.network_seconds += duration.network_seconds
            elapsed.compute_seconds += duration.compute_seconds
            elapsed.overhead_seconds += duration.overhead_seconds
        return SchedulerReport(
            timings=timings, critical_path=tuple(critical), elapsed=elapsed
        )

    @staticmethod
    def _node_duration(run: NodeRun) -> TimeBreakdown:
        """Total simulated cost of one node: every attempt's metered time
        (each scaled by its straggler slowdown, if any) plus retry backoff
        booked as overhead."""
        network = compute = overhead = 0.0
        for meter in run.meters:
            n, c, o = meter.breakdown()
            factor = meter.slowdown_factor
            network += n * factor
            compute += c * factor
            overhead += o * factor
        return TimeBreakdown(
            network_seconds=network,
            compute_seconds=compute,
            overhead_seconds=overhead + run.backoff_seconds,
        )

    def _speculate(
        self,
        graph: StageGraph,
        runs: list[NodeRun],
        durations: list[TimeBreakdown],
    ) -> list[TimeBreakdown]:
        """Re-simulate straggler nodes with a speculative healthy copy.

        A copy is launched once a node runs ``N x`` the median *clean*
        (unslowed) duration of its same-stage siblings; the copy needs the
        node's own clean duration, and the first finisher wins.  The median
        must be over clean durations: two stragglers in one stage would
        otherwise inflate each other's threshold and mask each other.
        Deterministic: pure arithmetic over the measured durations, no
        wall-clock involved.
        """
        by_stage: dict[int, list[int]] = {}
        for node in graph.nodes:
            by_stage.setdefault(node.stage, []).append(node.index)

        clean_durations = [
            sum(sum(meter.breakdown()) for meter in run.meters) + run.backoff_seconds
            for run in runs
        ]
        adjusted = list(durations)
        for node in graph.nodes:
            siblings = [i for i in by_stage[node.stage] if i != node.index]
            if not siblings:
                continue
            slowed = durations[node.index].total_seconds
            clean = clean_durations[node.index]
            if slowed <= clean:
                continue  # not a straggler
            threshold = self.speculation_multiplier * statistics.median(
                clean_durations[i] for i in siblings
            )
            effective = min(slowed, threshold + clean)
            if effective >= slowed:
                continue  # the copy would not have finished first
            scale = effective / slowed if slowed > 0 else 1.0
            old = durations[node.index]
            adjusted[node.index] = TimeBreakdown(
                network_seconds=old.network_seconds * scale,
                compute_seconds=old.compute_seconds * scale,
                overhead_seconds=old.overhead_seconds * scale,
            )
            emit(
                {
                    "event": "speculation",
                    "node": node.index,
                    "stage": node.stage,
                    "slowed_sec": slowed,
                    "effective_sec": effective,
                    "threshold_sec": threshold,
                }
            )
        return adjusted

    @staticmethod
    def _critical_path(
        graph: StageGraph, timings: list[StageTiming], finish: list[float]
    ) -> list[int]:
        if not timings:
            return []
        tail = max(range(len(finish)), key=lambda i: (finish[i], -i))
        path = [tail]
        cursor = tail
        while graph.nodes[cursor].deps:
            start = timings[cursor].start_seconds
            if start == 0.0:
                break
            # The dependency whose finish realised this node's start time.
            cursor = min(
                d for d in graph.nodes[cursor].deps if finish[d] == start
            )
            path.append(cursor)
        return list(reversed(path))
