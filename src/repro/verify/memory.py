"""Static per-worker peak-memory prediction.

Mirrors, ahead of execution, exactly what the local engines' memory
trackers charge at run time:

* **Transients** -- only the three charging kernel families register block
  grids with a worker's tracker for the duration of the operation: matmul
  (both operand grids + the result, plus accumulation partials), cellwise
  (both operands + result) and scalar-matrix (operand + result, with the
  zero-fill densification ``add``/``subtract`` performs on sparse
  operands).  Sources, extended operators, unary maps, row/col aggregations
  and driver aggregates move or create blocks without tracker charges, so
  they predict zero -- matching the meter, not an idealised cost model.
* **Pins** -- every ``plan.cache_pins`` instance is charged to the
  BlockCache when its producer publishes and stays resident until the run
  ends, so the serial bound of a step is the *pin prefix* (the pins
  published so far) plus that step's transient: a transient-heavy step
  *before* a pin's producer never pays for that pin.

A matrix is sized from the two facts the cost model
(:class:`~repro.core.cost.CostModel`) reads: the program's declared
dimensions -- on any plan that lints, the shape analysis' answer (rule
DM101) -- and the Section-5.1 worst-case sparsity of
:class:`~repro.core.estimator.SizeEstimator`, priced by the paper's
Equation-2 model: blocks store sparse only below
:data:`~repro.blocks.conversion.DEFAULT_SPARSE_THRESHOLD` (8 bytes per
non-zero, so at most ``2.4`` bytes per element) and dense at 4 bytes per
element above it, so the per-matrix bound takes the sparse model below the
threshold and ``max(dense, sparse-at-threshold)`` above -- never the
8-bytes-per-element sparse formula at a density the engine would refuse to
store sparse.  Per-worker shares assume Equation 2's
uniform distribution of non-zeros over blocks (the paper's own modelling
assumption): a BROADCAST replica charges its full size, a 1-D layout
``ceil(block_rows / K)`` block rows (resp. columns).

Under concurrent scheduling up to ``C`` stage-graph nodes run at once, so
the concurrent bound adds the ``C`` largest per-node transients -- a
superset of any antichain the scheduler can actually dispatch -- on top of
the full pin set.  With ``max_concurrent_stages=1`` the serial bound
applies and is tight enough to validate against observed tracker peaks.
``live_peak_bytes`` -- the high water of every instance still to be read
(:func:`solve_liveness`) -- is informational: no bound includes it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.blocks.conversion import DEFAULT_SPARSE_THRESHOLD
from repro.blocks.memory import (
    dense_block_model_bytes,
    matrix_model_bytes,
    program_block_size,
)
from repro.core.estimator import SizeEstimator
from repro.core.plan import (
    CellwiseStep,
    FusedCellwiseStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    ScalarMatrixStep,
    Step,
)
from repro.errors import PlanError
from repro.matrix.schemes import Scheme
from repro.runtime.graph import StageGraph
from repro.verify.analysis import declared_shape


@dataclasses.dataclass(frozen=True)
class StepFootprint:
    """One step's predicted tracker charge while it runs."""

    index: int
    step: str
    transient_bytes: int
    pinned_bytes: int  # pin prefix resident when this step runs


@dataclasses.dataclass(frozen=True)
class MemoryPrediction:
    """A sound per-worker high-water-mark bound for one plan."""

    peak_bytes: int  # the bound for the requested concurrency
    serial_peak_bytes: int  # max over steps of pins-so-far + transient
    concurrent_peak_bytes: int  # all pins + top-C node transients
    pinned_bytes: int  # full cache-pin working set per worker
    transient_peak_bytes: int  # largest single-step transient
    live_peak_bytes: int  # liveness high water of all resident instances
    block_size: int
    concurrency: int
    footprints: Tuple[StepFootprint, ...]

    def to_json_dict(self) -> Dict[str, object]:
        heaviest = sorted(
            self.footprints, key=lambda f: -f.transient_bytes
        )[:8]
        return {
            "peak_bytes": self.peak_bytes,
            "serial_peak_bytes": self.serial_peak_bytes,
            "concurrent_peak_bytes": self.concurrent_peak_bytes,
            "pinned_bytes": self.pinned_bytes,
            "transient_peak_bytes": self.transient_peak_bytes,
            "live_peak_bytes": self.live_peak_bytes,
            "block_size": self.block_size,
            "concurrency": self.concurrency,
            "heaviest_steps": [
                {
                    "plan_index": f.index,
                    "step": f.step,
                    "transient_bytes": f.transient_bytes,
                    "pinned_bytes": f.pinned_bytes,
                }
                for f in heaviest
                if f.transient_bytes
            ],
        }


def _model_bytes(rows: int, cols: int, sparsity: float, block_size: int) -> int:
    """Equation-2 bound for one whole matrix under auto storage choice.

    The engine picks storage per block by *actual* density against
    ``DEFAULT_SPARSE_THRESHOLD``; the estimator only over-approximates
    density.  Below the threshold every block stays sparse and the sparse
    formula is monotone in density, so it bounds the charge.  At or above,
    a block is either dense (4 bytes/element) or sparse at a density
    *under* the threshold (at most ``4N + 2.4MN`` per block), so the bound
    is ``max(dense, sparse-at-threshold)`` -- not the sparse formula at the
    estimated density, which would double-count dense matrices at 8
    bytes/element."""
    if rows <= 0 or cols <= 0:
        return 0
    if sparsity < DEFAULT_SPARSE_THRESHOLD:
        return matrix_model_bytes(rows, cols, sparsity, block_size, sparse=True)
    dense = matrix_model_bytes(rows, cols, sparsity, block_size, sparse=False)
    sparse_cap = matrix_model_bytes(
        rows, cols, DEFAULT_SPARSE_THRESHOLD, block_size, sparse=True
    )
    return max(dense, sparse_cap)


def _share_bytes(
    rows: int,
    cols: int,
    sparsity: float,
    scheme: Scheme,
    block_size: int,
    num_workers: int,
) -> int:
    """Per-worker share of a matrix under its scheme (Equation-2 model)."""
    total = _model_bytes(rows, cols, sparsity, block_size)
    if rows <= 0 or cols <= 0 or num_workers <= 1:
        return total
    if scheme is Scheme.ROW:
        block_rows = math.ceil(rows / block_size)
        owned = min(rows, math.ceil(block_rows / num_workers) * block_size)
        return min(total, _model_bytes(owned, cols, sparsity, block_size))
    if scheme is Scheme.COL:
        block_cols = math.ceil(cols / block_size)
        owned = min(cols, math.ceil(block_cols / num_workers) * block_size)
        return min(total, _model_bytes(rows, owned, sparsity, block_size))
    return total  # BROADCAST (or unknown): a full replica everywhere


class _Sizer:
    """Caches per-instance share computations for one prediction run."""

    def __init__(
        self,
        plan: Plan,
        block_size: int,
        num_workers: int,
        estimation_mode: str,
    ) -> None:
        self._program = plan.program
        self._block_size = block_size
        self._num_workers = num_workers
        self._estimator = SizeEstimator(self._program, estimation_mode)
        self._cache: Dict[Tuple[MatrixInstance, bool], int] = {}

    def shape(self, instance: MatrixInstance) -> Tuple[int, int]:
        """Declared dims; a name the program never declared (DM101's
        finding) weighs nothing."""
        return declared_shape(self._program, instance) or (0, 0)

    def sparsity(self, instance: MatrixInstance) -> float:
        try:
            return self._estimator.sparsity(instance.name)
        except PlanError:
            return 1.0  # unknown matrix: assume dense

    def share(self, instance: MatrixInstance, *, dense: bool = False) -> int:
        key = (instance, dense)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        rows, cols = self.shape(instance)
        sparsity = 1.0 if dense else self.sparsity(instance)
        nbytes = _share_bytes(
            rows, cols, sparsity, instance.scheme,
            self._block_size, self._num_workers,
        )
        self._cache[key] = nbytes
        return nbytes

    def full(self, instance: MatrixInstance, *, dense: bool = False) -> int:
        rows, cols = self.shape(instance)
        sparsity = 1.0 if dense else self.sparsity(instance)
        return _model_bytes(rows, cols, sparsity, self._block_size)


def _scalar_matrix_densifies(step: ScalarMatrixStep) -> bool:
    """Does ``add``/``subtract`` zero-fill sparse operands?  A scalar read
    from the driver at run time is conservatively assumed non-zero."""
    if step.op.op not in ("add", "subtract"):
        return False
    scalar = step.op.scalar
    return isinstance(scalar, str) or scalar != 0


def _transient_bytes(
    step: Step,
    sizer: _Sizer,
    block_size: int,
    threads_per_worker: int,
    inplace: bool,
    strassen: bool = False,
    strassen_min_size: int = 128,
) -> int:
    """Tracker bytes this step holds on one worker while it runs."""
    if isinstance(step, MatMulStep):
        operands = sizer.share(step.left) + sizer.share(step.right)
        if step.strategy == "cpmm":
            # Every worker materialises a full dense partial of C before
            # the aggregation shuffle merges strips on the consumers.
            result = sizer.full(step.output, dense=True)
        else:
            result = sizer.share(step.output, dense=True)
        inner = sizer.shape(step.left)[1]
        inner_blocks = max(1, math.ceil(inner / block_size))
        # Every partial is one dense result block held for one inner fold,
        # so all of them together weigh ``result * inner_blocks``; the
        # In-Place engine keeps at most one in flight per lane (<= L lanes).
        all_partials = result * inner_blocks
        if inplace:
            in_flight = threads_per_worker * dense_block_model_bytes(
                block_size, block_size
            )
            partials = min(in_flight, all_partials)
        else:  # the Buffer strategy holds every partial until the merge
            partials = all_partials
        extra = 0
        if strassen:
            # Strassen's recursion holds padded operand copies plus seven
            # half-size products per in-flight block product -- physical
            # temporaries beyond the tracker's model, charged here so the
            # admission bound stays sound when the kernel is enabled.
            from repro.core.strategies import choose_local_matmul

            chosen = choose_local_matmul(
                block_size,
                block_size,
                block_size,
                strassen=True,
                crossover=strassen_min_size,
            )
            if chosen.name == "strassen":
                extra = threads_per_worker * chosen.temp_bytes
        return operands + result + partials + extra
    if isinstance(step, CellwiseStep):
        return (
            sizer.share(step.left)
            + sizer.share(step.right)
            + sizer.share(step.output)
        )
    if isinstance(step, FusedCellwiseStep):
        # The fused kernel registers every external operand grid and the
        # final result; chain intermediates are per-block temporaries that
        # never reach the tracker.
        return sum(
            sizer.share(instance) for instance in step.inputs()
        ) + sizer.share(step.output)
    if isinstance(step, ScalarMatrixStep):
        if _scalar_matrix_densifies(step):
            # Zero-fill: the registered operand grid carries its sparse
            # blocks plus explicit dense zero blocks for absent keys.
            operand = sizer.share(step.source) + sizer.share(step.source, dense=True)
            return operand + sizer.share(step.output, dense=True)
        return sizer.share(step.source) + sizer.share(step.output)
    # Sources, extended operators, unary maps, row/col aggregations and
    # driver aggregates never register grids with the trackers.
    return 0


def solve_liveness(plan: Plan) -> Tuple[FrozenSet[MatrixInstance], ...]:
    """``live_after[i]``: instances some step after ``i`` (or a program
    output materialisation) still reads.  One reverse sweep -- the
    per-instance dependency graph is acyclic by construction."""
    live: set[MatrixInstance] = set(plan.outputs.values())
    live_after: list[FrozenSet[MatrixInstance]] = [frozenset()] * len(plan.steps)
    for index in range(len(plan.steps) - 1, -1, -1):
        step = plan.steps[index]
        live_after[index] = frozenset(live)
        output = step.output_instance()
        if output is not None:
            live.discard(output)
        live.update(step.inputs())
    return tuple(live_after)


def predict_peak_memory(
    plan: Plan,
    *,
    num_workers: int,
    threads_per_worker: int = 8,
    block_size: Optional[int] = None,
    inplace: bool = True,
    max_concurrent_stages: Optional[int] = None,
    estimation_mode: str = "worst",
    graph: Optional[StageGraph] = None,
    strassen: bool = False,
    strassen_min_size: int = 128,
) -> MemoryPrediction:
    """Predict the per-worker tracker high-water mark for a plan.

    Defaults mirror the executor: automatic Equation-3 block size, the
    In-Place accumulation engine, and the scheduler's default stage
    concurrency.  Pass ``max_concurrent_stages=1`` for the serial bound.
    """
    graph = graph or StageGraph.from_plan(plan)
    if block_size is None:
        block_size = program_block_size(
            plan.program.dims, num_workers, threads_per_worker
        )
    sizer = _Sizer(plan, block_size, num_workers, estimation_mode)

    transients = [
        _transient_bytes(
            step, sizer, block_size, threads_per_worker, inplace,
            strassen=strassen, strassen_min_size=strassen_min_size,
        )
        for step in plan.steps
    ]

    # Pins charge at their (first) producer's publish and stay resident to
    # the end.
    admitted_at: Dict[int, int] = {}
    for pin in plan.cache_pins:
        index = graph.defuse.first(pin) or 0
        admitted_at[index] = admitted_at.get(index, 0) + sizer.share(pin)
    pin_prefix: List[int] = []
    running = 0
    for index in range(len(plan.steps)):
        running += admitted_at.get(index, 0)
        pin_prefix.append(running)
    pinned_total = running

    footprints = tuple(
        StepFootprint(
            index=index,
            step=str(step),
            transient_bytes=transients[index],
            pinned_bytes=pin_prefix[index],
        )
        for index, step in enumerate(plan.steps)
    )
    serial_peak = max(
        (pin_prefix[i] + transients[i] for i in range(len(plan.steps))),
        default=0,
    )
    serial_peak = max(serial_peak, pinned_total)
    transient_peak = max(transients, default=0)

    node_transients = sorted(
        (
            max((transients[i] for i in node.steps), default=0)
            for node in graph.nodes
        ),
        reverse=True,
    )
    from repro.runtime.scheduler import DEFAULT_MAX_CONCURRENT_STAGES

    concurrency = max(
        1, min(max_concurrent_stages or DEFAULT_MAX_CONCURRENT_STAGES,
               max(1, len(graph.nodes))),
    )
    concurrent_peak = pinned_total + sum(node_transients[:concurrency])

    # Liveness high water: every produced instance resident at some step,
    # under refcounting -- an *informational* floor-style curve; tracker
    # charges are the two bounds above.
    live_peak = max(
        (sum(map(sizer.share, live)) for live in solve_liveness(plan)),
        default=0,
    )

    return MemoryPrediction(
        peak_bytes=serial_peak if concurrency == 1 else concurrent_peak,
        serial_peak_bytes=serial_peak,
        concurrent_peak_bytes=concurrent_peak,
        pinned_bytes=pinned_total,
        transient_peak_bytes=transient_peak,
        live_peak_bytes=live_peak,
        block_size=block_size,
        concurrency=concurrency,
        footprints=footprints,
    )
