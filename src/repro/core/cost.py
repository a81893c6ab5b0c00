"""The dependency-oriented cost model (paper Section 4.1): every price a
plan step has is quoted here.

**Decision prices** -- what Algorithm 1 compares.  For an input event
``In(A, p_i, op_i)`` depending on an output event already in the
OutputSet, the communication it induces is determined by the dependency
type alone::

    Cost(In) = 0          non-communication dependency        (Situation 1)
    Cost(In) = |A|        Partition / Transpose-Partition     (Situation 2)
    Cost(In) = N * |A|    Broadcast / Transpose-Broadcast     (Situation 3)

The output event costs ``N x |C|`` for CPMM and nothing otherwise.  The
strategy chosen for an operator is the argmin of the summed input and
output event costs (Equation 1); ties are broken by catalog order, which
prefers replication-based multiplication over CPMM.

**Predicted prices** -- what a finished plan is expected to cost.
:class:`CostModel` is bound once to ``(program, num_workers,
estimation_mode)`` and holds the one
:class:`~repro.core.estimator.SizeEstimator` (Section 5.1); it quotes each
step's ledger bytes and flops, :meth:`CostModel.price` tabulates them
(:class:`CostTable`) and :func:`seconds` turns totals into simulated time.
The planner, the optimizer, lint rule DM104, ``repro plan``, the service's
admission predictions and the elasticity policies' stage profile all read
these; none of them prices a step itself.

**Memory quotes** -- the same two facts priced by Equation 2: what a
matrix weighs whole (:meth:`CostModel.matrix_bytes`) and on one worker
(:meth:`CostModel.share_bytes`).  The peak-memory bound sizes through them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, NamedTuple

from repro.blocks.conversion import DEFAULT_SPARSE_THRESHOLD
from repro.blocks.memory import matrix_model_bytes
from repro.config import ClockConfig
from repro.core.dependency import (
    BROADCAST_DEPENDENCIES,
    DependencyType,
    is_communication,
)
from repro.core.estimator import SizeEstimator
from repro.core.plan import (
    AggregateStep,
    CellwiseStep,
    ExtendedStep,
    FusedCellwiseStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    ScalarMatrixStep,
    Step,
    UnaryStep,
)
from repro.core.strategies import Strategy
from repro.errors import PlanError
from repro.lang.program import MatrixProgram
from repro.matrix.schemes import Scheme

#: Steps whose work is one flop per cell of their first matrix operand.
_PER_CELL_STEPS = (CellwiseStep, ScalarMatrixStep, UnaryStep, RowAggStep, AggregateStep)


def dependency_cost(dependency: DependencyType, nbytes: int, num_workers: int) -> int:
    """Communication bytes induced by satisfying one input event."""
    if not is_communication(dependency):
        return 0
    if dependency in BROADCAST_DEPENDENCIES:
        return num_workers * nbytes
    return nbytes


def output_cost(strategy: Strategy, nbytes: int, num_workers: int) -> int:
    """Communication bytes induced by the strategy's output event."""
    if strategy.shuffles_output:
        return num_workers * nbytes
    return 0


def _stored_bytes(rows: int, cols: int, sparsity: float, block_size: int) -> int:
    """Equation 2 for a whole matrix, bounding the engine's per-block storage
    choice: below ``DEFAULT_SPARSE_THRESHOLD`` every block stays sparse (the
    sparse formula is monotone in density); at or above it a block is dense
    or sparse *under* the threshold, so the bound is ``max(dense,
    sparse-at-threshold)`` -- never 8 bytes per element at a density the
    engine would not store sparse."""
    if rows <= 0 or cols <= 0:
        return 0
    if sparsity < DEFAULT_SPARSE_THRESHOLD:
        return matrix_model_bytes(rows, cols, sparsity, block_size, sparse=True)
    dense = matrix_model_bytes(rows, cols, sparsity, block_size, sparse=False)
    sparse_cap = matrix_model_bytes(
        rows, cols, DEFAULT_SPARSE_THRESHOLD, block_size, sparse=True
    )
    return max(dense, sparse_cap)


def _owned(extent: int, block_size: int, workers: int) -> int:
    """One worker's part of ``extent`` dealt out in ``block_size`` lines."""
    return min(extent, math.ceil(math.ceil(extent / block_size) / workers) * block_size)


@dataclasses.dataclass(frozen=True)
class StepCost:
    """One row of a :class:`CostTable`: what ``plan.steps[index]`` costs."""

    index: int
    stage: int
    comm_bytes: int
    flops: int


@dataclasses.dataclass(frozen=True)
class CostTable:
    """The predicted price of a plan, step by step (one row per step, in
    step order)."""

    rows: tuple[StepCost, ...]

    @property
    def bytes(self) -> int:
        """Predicted communication: what ``plan.predicted_bytes`` declares."""
        return sum(row.comm_bytes for row in self.rows)

    @property
    def flops(self) -> int:
        return sum(row.flops for row in self.rows)

    @property
    def bytes_by_stage(self) -> dict[int, int]:
        """Stage -> predicted communication, for the stages that have any."""
        by_stage: dict[int, int] = {}
        for row in self.rows:
            if row.comm_bytes:
                by_stage[row.stage] = by_stage.get(row.stage, 0) + row.comm_bytes
        return by_stage

    @property
    def flops_by_stage(self) -> list[int]:
        """Work per stage, indexed by stage number (plans start at stage 1,
        so entry 0 is zero): the load profile an
        :class:`~repro.elastic.policies.ElasticityPolicy` sizes membership
        from."""
        if not self.rows:
            return []
        profile = [0] * (max(row.stage for row in self.rows) + 1)
        for row in self.rows:
            profile[row.stage] += row.flops
        return profile


class CostModel:
    """Prices the steps of any plan of one program on one cluster size.

    ``replicas`` is how many copies a broadcast or an output shuffle ships:
    ``num_workers - 1`` on the ledger (the default: the owner keeps its own
    copy), ``num_workers`` in the paper's decision model
    (:func:`repro.core.optimal.paper_cost_of_plan`).
    """

    def __init__(
        self,
        program: MatrixProgram,
        num_workers: int,
        estimation_mode: str = "worst",
        *,
        replicas: int | None = None,
    ) -> None:
        self.program = program
        self.num_workers = num_workers
        self.estimator = SizeEstimator(program, estimation_mode)
        self.replicas = num_workers - 1 if replicas is None else replicas
        self._shares: dict[tuple[MatrixInstance, int, bool], int] = {}

    def comm_bytes(self, step: Step) -> int:
        """The charge the communication ledger will book for one step:
        ``|A|`` for a partition, ``replicas x |A|`` for a broadcast,
        ``replicas x |C|`` for a multiplication or row aggregation that
        shuffles its output, nothing otherwise."""
        if not step.communicates:
            return 0
        if isinstance(step, ExtendedStep):
            nbytes = self.estimator.nbytes(step.source.name)
            return self.replicas * nbytes if step.kind == "broadcast" else nbytes
        assert isinstance(step, (MatMulStep, RowAggStep))  # cpmm / *-opposed
        return self.replicas * self.estimator.nbytes(step.output.name)

    def flops(self, step: Step) -> int:
        """The work of one step: ``2 m k n`` scaled by the left operand's
        estimated sparsity for a multiplication (the engines skip zero
        rows; a ``bmm`` is that on each of the N members), one flop per
        cell for element-wise operators and aggregations, the sum over its
        chain for a fused step, nothing for sources,
        extended operators and driver scalars."""
        if isinstance(step, MatMulStep):
            m, k = self.program.dims_of(step.op.left)
            n = self.program.dims_of(step.op.right)[1]
            flops = self.product_flops(m, k, n, self.estimator.sparsity_of(step.op.left))
            # Every member multiplies its own replicas: N products booked.
            return self.num_workers * flops if step.strategy == "bmm" else flops
        if isinstance(step, _PER_CELL_STEPS):
            rows, cols = self.program.dims[step.op.matrix_inputs()[0].name]
            return rows * cols
        if isinstance(step, FusedCellwiseStep):
            return sum(self.flops(inner) for inner in step.chain)
        return 0

    @staticmethod
    def product_flops(m: int, k: int, n: int, density: float) -> int:
        """One ``m x k @ k x n`` product whose left operand has this
        estimated density (the engines skip zero rows)."""
        return int(2 * m * k * n * min(1.0, density))

    def bytes(self, steps: Iterable[Step]) -> int:
        """Predicted communication of a whole step list: the total of
        :meth:`price` without the table (the optimizer asks once per trial)."""
        return sum(map(self.comm_bytes, steps))

    def price(self, plan: Plan) -> CostTable:
        """The per-step cost table of a plan of this model's program."""
        return CostTable(
            tuple(
                StepCost(index, step.stage, self.comm_bytes(step), self.flops(step))
                for index, step in enumerate(plan.steps)
            )
        )

    def dims(self, instance: MatrixInstance) -> tuple[int, int]:
        """An instance's declared dimensions (transpose-adjusted); ``(0, 0)``
        for a name the program does not declare, so it weighs nothing."""
        if instance.name not in self.program.dims:
            return (0, 0)
        return self.program.dims_of(instance)

    def matrix_bytes(
        self, instance: MatrixInstance, block_size: int, *, dense: bool = False
    ) -> int:
        """Equation-2 bytes of a whole matrix (``dense``: stored dense)."""
        rows, cols = self.dims(instance)
        return _stored_bytes(rows, cols, self._sparsity(instance, dense), block_size)

    def share_bytes(
        self, instance: MatrixInstance, block_size: int, *, dense: bool = False
    ) -> int:
        """One worker's Equation-2 share of a matrix under its scheme, with
        non-zeros spread uniformly over blocks (the paper's own assumption):
        a broadcast replica is the whole matrix, a 1-D layout owns
        ``ceil(block_rows / N)`` block rows (resp. columns).  Memoised: the
        memory bound asks for a share once per step that holds it."""
        key = (instance, block_size, dense)
        share = self._shares.get(key)
        if share is None:
            rows, cols = self.dims(instance)
            sparsity = self._sparsity(instance, dense)
            share = _stored_bytes(rows, cols, sparsity, block_size)
            if instance.scheme is not Scheme.BROADCAST and self.num_workers > 1:
                if instance.scheme is Scheme.ROW:
                    rows = _owned(rows, block_size, self.num_workers)
                else:
                    cols = _owned(cols, block_size, self.num_workers)
                share = min(share, _stored_bytes(rows, cols, sparsity, block_size))
            self._shares[key] = share
        return share

    def _sparsity(self, instance: MatrixInstance, dense: bool) -> float:
        """The Section-5.1 estimate; 1 when ``dense`` or when the name has
        no estimate (sized dense)."""
        if not dense:
            try:
                return self.estimator.sparsity(instance.name)
            except PlanError:
                pass
        return 1.0


class PredictedSeconds(NamedTuple):
    """Predicted time on the simulated clock, by component."""

    network: float
    compute: float
    overhead: float


def seconds(
    comm_bytes: int,
    flops: int,
    stages: int,
    clock: ClockConfig,
    num_workers: int,
    threads_per_worker: int,
) -> PredictedSeconds:
    """Planning-grade time for predicted totals on a given cluster.

    Communication at the simulated network rate, dense compute spread over
    every thread of every worker, one scheduling latency per stage -- the
    rates the :class:`~repro.config.ClockConfig` bills measured bytes and
    flops at, so the estimate and the eventual charge live on one scale.  It
    is *not* a promise about the measured ``simulated_seconds``.
    """
    return PredictedSeconds(
        network=comm_bytes / clock.network_bytes_per_sec,
        compute=flops
        / (clock.dense_flops_per_sec * threads_per_worker * num_workers),
        overhead=stages * clock.latency_per_stage_sec,
    )
