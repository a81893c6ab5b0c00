"""The per-worker block execution engine (paper Section 5.3, Figure 4).

Each worker turns a grid-level operation into independent per-block tasks,
runs them in at most ``threads`` lanes of a shared
:class:`~repro.localexec.lanes.LanePool`, and meters flops and (model) memory.
Two aggregation strategies are provided for block matrix multiplication:

* ``inplace=True`` -- the paper's **In-Place** strategy.  One task per
  result block and one charged result block per task: the first partial
  product *is* that block, and every later one is folded straight into
  it, so at any instant only the transient partial of each *active* task
  exists.  The tracker sees what the model describes -- the result block
  charged up front, every product a transient -- whichever array holds
  the sum.
* ``inplace=False`` -- the traditional **Buffer** strategy.  One task per
  partial product; all ``M_A x N_A x N_B`` partial blocks are buffered and
  aggregated at the end onto one charged zero block per result block,
  which is what makes its peak memory blow up on dense-ish intermediates
  (Figure 7).

Memory is metered with the paper's byte model (Equation 2) through a
:class:`~repro.localexec.pool.MemoryTracker`.  Input grids are charged via
:meth:`LocalEngine.register_grid`; operation outputs stay charged until the
caller invokes :meth:`LocalEngine.release_grid`.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Callable, Iterable, Mapping

from repro.blocks import ops
from repro.blocks.dense import DenseBlock
from repro.blocks.memory import dense_block_model_bytes
from repro.blocks.ops import Block
from repro.blocks.sparse import CSCBlock
from repro.errors import BlockError
from repro.localexec import fused
from repro.localexec.lanes import LanePool
from repro.localexec.pool import MemoryTracker
from repro.localexec.tasks import (
    BlockKey,
    BlockTask,
    MultiplyAccumulateTask,
    MultiplyTask,
    TaskResult,
    buffered_matmul_tasks,
    inplace_matmul_tasks,
)
from repro.runtime.metering import active_meter
from repro.trace.emit import active_tracer, current_stage

Grid = dict[BlockKey, Block]


@dataclasses.dataclass
class EngineStats:
    """Counters accumulated across all operations run by one engine.

    Internally locked: primitives and block tasks report from arbitrary
    threads (the lane pool's, and concurrently running stages).  Each
    ``record`` also notifies the active
    :class:`~repro.runtime.metering.StageMeter`, if one is installed, so
    the stage scheduler can attribute flops to the stage that caused them.
    """

    tasks: int = 0
    flops: int = 0
    sparse_flops: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, flops: int, sparse: bool) -> None:
        with self._lock:
            self.flops += flops
            if sparse:
                self.sparse_flops += flops
        meter = active_meter()
        if meter is not None:
            meter.record_flops(self, flops, sparse)

    def add_tasks(self, count: int) -> None:
        with self._lock:
            self.tasks += count

    @property
    def dense_flops(self) -> int:
        return self.flops - self.sparse_flops


class LocalEngine:
    """Block-parallel executor for one worker node.

    ``lanes`` is the cluster context's thread pool; an engine built without
    one (tests) owns a private, equally lazy one.
    """

    def __init__(
        self,
        threads: int = 1,
        inplace: bool = True,
        memory_limit_bytes: int | None = None,
        lanes: LanePool | None = None,
    ) -> None:
        if threads < 1:
            raise BlockError(f"threads must be >= 1, got {threads}")
        self.threads = threads
        self._lanes = lanes if lanes is not None else LanePool()
        self.inplace = inplace
        self.tracker = MemoryTracker(memory_limit_bytes)
        self.stats = EngineStats()

    # -- memory bookkeeping --------------------------------------------------

    def register_grid(self, grid: Mapping[BlockKey, Block]) -> None:
        """Charge an input grid to this worker's memory."""
        self.tracker.allocate(sum(block.model_nbytes for block in grid.values()))

    def release_grid(self, grid: Mapping[BlockKey, Block]) -> None:
        """Discharge a grid previously charged (input or returned result)."""
        self.tracker.release(sum(block.model_nbytes for block in grid.values()))

    # -- grid operations -------------------------------------------------------

    def matmul_grids(self, a_grid: Grid, b_grid: Grid) -> Grid:
        """Block product of two local grids: ``C[i,j] = sum_k A[i,k] @ B[k,j]``.

        Only inner indices present in both grids contribute (absent blocks
        are all-zero).  Aggregation strategy is In-Place or Buffer per the
        engine configuration.
        """
        if self.inplace:
            tasks = inplace_matmul_tasks(a_grid, b_grid)
            results = self._run(tasks, self._run_inplace_task)
            return {r.result_key: r.block for r in results}
        return self._buffered_matmul(a_grid, b_grid)

    def fused_cellwise_grids(
        self, chain: fused.FusedChain, grids: tuple[Grid, ...]
    ) -> Grid:
        """Run a fused cellwise chain as one composed kernel per block key.

        Block-key sets of every chain value are derived symbolically first
        (raising the same divide-coverage error the step-by-step execution
        would), then one task per *final* key composes the whole chain with
        :func:`repro.localexec.fused.compose_key`.  No intermediate grid is
        registered or published.
        """
        key_sets = fused.chain_key_sets(
            chain, tuple(frozenset(grid) for grid in grids)
        )
        tasks = [
            BlockTask(key, self._bind_fused(chain, key, grids))
            for key in sorted(key_sets[-1])
        ]
        results = self._run(tasks, self._run_block_task)
        return self._collect_allocated(results)

    def cellwise_grids(self, op: str, a_grid: Grid, b_grid: Grid) -> Grid:
        """Cell-wise binary operation over two aligned grids.

        Key policy mirrors zero-block semantics: ``multiply`` intersects the
        key sets (zero times anything is zero), ``add``/``subtract`` union
        them, ``divide`` iterates the numerator's keys and requires the
        denominator block to be present.
        """
        tasks = list(self._cellwise_tasks(op, a_grid, b_grid))
        results = self._run(tasks, self._run_block_task)
        return self._collect_allocated(results)

    def scalar_grids(self, op: str, grid: Grid, scalar: float) -> Grid:
        """Apply ``block <op> scalar`` to every block of a grid."""
        tasks = [
            BlockTask(key, self._bind_scalar(op, block, scalar))
            for key, block in sorted(grid.items())
        ]
        results = self._run(tasks, self._run_block_task)
        return self._collect_allocated(results)

    # -- task plumbing ---------------------------------------------------------

    def _run(self, tasks: Iterable, runner: Callable) -> list[TaskResult]:
        tasks = list(tasks)
        self.stats.add_tasks(len(tasks))
        return self._lanes.map(_traced(runner), tasks, self.threads)

    def _run_inplace_task(self, task: MultiplyAccumulateTask) -> TaskResult:
        # The result block is charged before it exists and every product as
        # a transient, the first included: the books of a zeroed block that
        # each product is folded into, which is what the model describes.
        self.tracker.allocate(dense_block_model_bytes(*task.result_shape))
        target = None
        for left, right in task.pairs:
            flops, partial = self._pair_product(left, right)
            self.tracker.allocate(partial.model_nbytes)
            if target is None:
                # A product is fresh and holds no -0.0, so 0.0 + partial is
                # partial to the bit: the first one is the result block.
                target = partial
            else:
                ops.accumulate(target, partial)
            self.tracker.release(partial.model_nbytes)
            self._record(flops, left.is_sparse or right.is_sparse)
        return TaskResult(task.result_key, target)

    def _pair_product(self, left: Block, right: Block) -> tuple[int, DenseBlock]:
        """One block product and its flop count."""
        return ops.matmul_flops(left, right), ops.matmul(left, right)

    def _buffered_matmul(self, a_grid: Grid, b_grid: Grid) -> Grid:
        def multiply(task: MultiplyTask) -> tuple[BlockKey, DenseBlock]:
            flops, partial = self._pair_product(task.left, task.right)
            self.tracker.allocate(partial.model_nbytes)
            self._record(flops, task.left.is_sparse or task.right.is_sparse)
            return task.result_key, partial

        partials = self._run(buffered_matmul_tasks(a_grid, b_grid), multiply)

        # All partials are alive here -- this is the Buffer strategy's peak.
        grouped: dict[BlockKey, list[DenseBlock]] = {}
        for key, partial in partials:
            grouped.setdefault(key, []).append(partial)
        result: Grid = {}
        for key, blocks in sorted(grouped.items()):
            target = DenseBlock.zeros(*blocks[0].shape)
            self.tracker.allocate(target.model_nbytes)
            for partial in blocks:
                ops.accumulate(target, partial)
                self._record(partial.shape[0] * partial.shape[1], sparse=False)
            result[key] = target
        for __, partial in partials:
            self.tracker.release(partial.model_nbytes)
        return result

    def _cellwise_tasks(self, op: str, a_grid: Grid, b_grid: Grid):
        if op not in ops.CELLWISE_OPS:
            raise BlockError(f"unknown cell-wise operator {op!r}")
        if op == "multiply":
            keys = sorted(set(a_grid) & set(b_grid))
        elif op == "divide":
            keys = sorted(a_grid)
            missing = [key for key in keys if key not in b_grid]
            if missing:
                raise BlockError(
                    f"cell-wise divide: denominator grid lacks blocks {missing[:3]}"
                )
        else:
            keys = sorted(set(a_grid) | set(b_grid))
        for key in keys:
            yield BlockTask(key, self._bind_cellwise(op, a_grid.get(key), b_grid.get(key)))

    def _bind_cellwise(self, op: str, left: Block | None, right: Block | None):
        def compute() -> Block:
            if left is None:
                assert right is not None
                result = right.copy() if op == "add" else ops.scalar_op("multiply", right, -1.0)
            elif right is None:
                result = left.copy()
            else:
                result = ops.cellwise(op, left, right)
            self._record(
                ops.cellwise_flops(left or right, right or left),
                (left is not None and left.is_sparse)
                or (right is not None and right.is_sparse),
            )
            return result

        return compute

    def _bind_fused(
        self, chain: fused.FusedChain, key: BlockKey, grids: tuple[Grid, ...]
    ):
        def compute() -> Block:
            block = fused.compose_key(chain, key, grids, self._record)
            # Keys come from the final key set, where a block always exists.
            assert block is not None
            return block

        return compute

    def _bind_scalar(self, op: str, block: Block, scalar: float):
        def compute() -> Block:
            result = ops.scalar_op(op, block, scalar)
            self._record(
                block.nnz if isinstance(block, CSCBlock) else block.shape[0] * block.shape[1],
                block.is_sparse,
            )
            return result

        return compute

    def _run_block_task(self, task: BlockTask) -> TaskResult:
        return TaskResult(task.result_key, task.compute())

    def _collect_allocated(self, results: list[TaskResult]) -> Grid:
        grid: Grid = {}
        for result in results:
            self.tracker.allocate(result.block.model_nbytes)
            grid[result.result_key] = result.block
        return grid

    def _record(self, flops: int, sparse: bool) -> None:
        self.stats.record(flops, sparse)


def _traced(runner: Callable) -> Callable:
    """Wrap a task runner in a block-task span when a tracer is active
    (the common no-tracer case returns ``runner`` untouched)."""
    tracer = active_tracer()
    if tracer is None:
        return runner

    def run(task):
        stage = current_stage()
        attrs = {"node": stage[0], "stage": stage[1]} if stage is not None else {}
        with tracer.span("block-task", type(task).__name__, **attrs):
            return runner(task)

    return run
