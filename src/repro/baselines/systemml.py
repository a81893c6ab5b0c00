"""SystemML-S: the paper's primary baseline (Section 6.1).

SystemML-S is SystemML's planner ported to Spark with DMac's local engine,
so "the only difference between SystemML-S and DMac is that SystemML-S
generates the execution plan without utilizing matrix dependency".
Operationally (Section 6.2):

* intermediates are cached hash-partitioned, so *every* use of a matrix
  pays a repartition to the scheme the operator strategy needs -- even when
  the producing operator happened to emit a compatible layout, and even for
  a transposed read ("SystemML needs to repartition it for W.t as well");
* every Broadcast-scheme requirement re-broadcasts the matrix ("SystemML-S
  needs to broadcast matrix R twice");
* strategy choice uses the same catalog and size estimates as DMac, but
  input costs are always ``|A|`` (Row/Column requirement) or ``N x |A|``
  (Broadcast requirement) -- there are no free dependencies.

The executor below runs on the same substrate (same engines, same metered
shuffle) so communication and simulated time are directly comparable with
DMac's.  Obliviousness is modelled physically: before each use the cached
matrix is viewed as hash-scattered (an unmetered relabelling -- the cache
layout fiction) and then shuffled to the required scheme with full
metering.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.cost import output_cost
from repro.core.estimator import SizeEstimator
from repro.core.strategies import Strategy, candidate_strategies
from repro.errors import ExecutionError
from repro.lang.program import (
    AggregateOp,
    CellwiseOp,
    FullOp,
    LoadOp,
    MatMulOp,
    MatrixProgram,
    Operand,
    RandomOp,
    RowAggOp,
    ScalarComputeOp,
    ScalarMatrixOp,
    UnaryMatrixOp,
)
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.primitives import (
    broadcast_matrix,
    cellwise_op,
    col_sums,
    cpmm,
    local_transpose,
    matrix_sq_sum,
    matrix_sum,
    rmm1,
    rmm2,
    row_sums,
    scalar_op_matrix,
    unary_op_matrix,
)
from repro.matrix.schemes import Scheme
from repro.rdd.clock import TimeBreakdown
from repro.rdd.context import ClusterContext
from repro.rdd.partitioner import HashPartitioner
from repro.rdd.rdd import RDD
from repro.rdd.shuffle import shuffle
from repro.runtime.backend import bound_input
from repro.runtime.executor import ExecutionResult, evaluate_scalar


class SystemMLSExecutor:
    """Plans and executes a program the SystemML-S way."""

    def __init__(self, context: ClusterContext, block_size: int | None = None) -> None:
        self.context = context
        self.block_size = block_size if block_size is not None else context.config.block_size

    # -- strategy choice (no dependency information) -------------------------

    def choose_strategy(self, op, estimator: SizeEstimator) -> Strategy:
        """Argmin of the dependency-blind cost: every 1-D input costs
        ``|A|``, every Broadcast input ``N x |A|`` (plus CPMM's output)."""
        workers = self.context.num_workers
        best, best_cost = None, None
        for strategy in candidate_strategies(op):
            cost = output_cost(strategy, estimator.nbytes(op.output), workers)
            for operand, scheme in zip(op.matrix_inputs(), strategy.input_schemes):
                nbytes = estimator.nbytes(operand.name)
                cost += workers * nbytes if scheme is Scheme.BROADCAST else nbytes
            if best_cost is None or cost < best_cost:
                best, best_cost = strategy, cost
        assert best is not None
        return best

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        program: MatrixProgram,
        inputs: dict[str, np.ndarray] | None = None,
    ) -> ExecutionResult:
        inputs = inputs or {}
        estimator = SizeEstimator(program)
        block_size = self._resolve_block_size(program)
        env: dict[str, DistributedMatrix] = {}
        scalars: dict[str, float] = {}
        context = self.context

        bytes_before = context.ledger.snapshot()
        time_before = context.clock.elapsed
        wall_start = time.perf_counter()
        stages = 0

        for op in program.ops:
            snapshot = context.flops_snapshot()
            if isinstance(op, (LoadOp, RandomOp, FullOp)):
                env[op.output] = self._materialise_source(op, inputs, block_size)
            elif isinstance(op, ScalarComputeOp):
                scalars[op.output] = evaluate_scalar(op.expr, scalars)
            elif isinstance(op, AggregateOp):
                matrix = env[op.operand.name]
                if op.kind == "sum":
                    scalars[op.output] = matrix_sum(matrix)
                elif op.kind == "sqsum":
                    scalars[op.output] = matrix_sq_sum(matrix)
                else:
                    scalars[op.output] = matrix.value()
            elif isinstance(op, MatMulOp):
                strategy = self.choose_strategy(op, estimator)
                left = self._prepare(env, op.left, strategy.input_schemes[0])
                right = self._prepare(env, op.right, strategy.input_schemes[1])
                if strategy.name == "rmm1":
                    env[op.output] = rmm1(left, right)
                elif strategy.name == "rmm2":
                    env[op.output] = rmm2(left, right)
                else:
                    env[op.output] = cpmm(left, right, strategy.primary_output)
                stages += 1
            elif isinstance(op, CellwiseOp):
                strategy = self.choose_strategy(op, estimator)
                left = self._prepare(env, op.left, strategy.input_schemes[0])
                right = self._prepare(env, op.right, strategy.input_schemes[1])
                env[op.output] = cellwise_op(op.op, left, right)
                stages += 1
            elif isinstance(op, ScalarMatrixOp):
                strategy = self.choose_strategy(op, estimator)
                source = self._prepare(env, op.operand, strategy.input_schemes[0])
                scalar = op.scalar
                value = scalars[scalar] if isinstance(scalar, str) else float(scalar)
                env[op.output] = scalar_op_matrix(op.op, source, value)
                stages += 1
            elif isinstance(op, UnaryMatrixOp):
                strategy = self.choose_strategy(op, estimator)
                source = self._prepare(env, op.operand, strategy.input_schemes[0])
                env[op.output] = unary_op_matrix(op.func, source)
                stages += 1
            elif isinstance(op, RowAggOp):
                strategy = self.choose_strategy(op, estimator)
                source = self._prepare(env, op.operand, strategy.input_schemes[0])
                aggregate = row_sums if op.kind == "rowsum" else col_sums
                if strategy.shuffles_output:
                    env[op.output] = aggregate(source, strategy.primary_output)
                else:
                    env[op.output] = aggregate(source)
                stages += 1
            else:  # pragma: no cover - all op kinds enumerated
                raise ExecutionError(f"SystemML-S: unknown operator {type(op).__name__}")
            context.charge_compute_since(snapshot)

        context.clock.advance_stage_overhead(max(stages, 1))
        matrices = {name: env[name].to_numpy() for name in program.outputs}
        wall_seconds = time.perf_counter() - wall_start
        time_after = context.clock.elapsed
        return ExecutionResult(
            matrices=matrices,
            scalars={name: scalars[name] for name in program.scalar_outputs},
            comm_bytes=context.ledger.snapshot() - bytes_before,
            time=TimeBreakdown(
                network_seconds=time_after.network_seconds - time_before.network_seconds,
                compute_seconds=time_after.compute_seconds - time_before.compute_seconds,
                overhead_seconds=time_after.overhead_seconds
                - time_before.overhead_seconds,
            ),
            num_stages=max(stages, 1),
            peak_memory_bytes=context.peak_memory_bytes(),
            wall_seconds=wall_seconds,
        )

    # -- input preparation: always repartition / broadcast ----------------------

    def _prepare(
        self,
        env: dict[str, DistributedMatrix],
        operand: Operand,
        required: Scheme,
    ) -> DistributedMatrix:
        matrix = env.get(operand.name)
        if matrix is None:
            raise ExecutionError(f"operand {operand} is used before being produced")
        if operand.transposed:
            # SystemML-S repartitions for the transposed view as well; the
            # element movement happens in the oblivious shuffle below, the
            # local flip is part of the reduce side.
            matrix = local_transpose(matrix)
        if required is Scheme.BROADCAST:
            if matrix.scheme is Scheme.BROADCAST:
                return matrix
            return broadcast_matrix(matrix)
        return self._oblivious_repartition(matrix, required)

    def _oblivious_repartition(
        self, matrix: DistributedMatrix, required: Scheme
    ) -> DistributedMatrix:
        """Shuffle into ``required`` as if the source were hash-scattered.

        The cached copy is *viewed* as living under Spark's default hash
        partitioning (a relabelling that moves nothing -- the planner simply
        has no scheme information to exploit); the metered shuffle to the
        required scheme then pays the full repartition the paper describes.
        """
        context = matrix.context
        if matrix.scheme is Scheme.BROADCAST:
            # A broadcast copy is everywhere; take worker 0's replica as the
            # canonical shard set before scattering.
            records = sorted(matrix.worker_grid(0).items())
        else:
            records = sorted(matrix.rdd.collect())
        hasher = HashPartitioner(context.num_workers)
        scattered: list[list] = [[] for __ in range(context.num_workers)]
        for key, block in records:
            scattered[hasher.partition_for(key)].append((key, block))
        partitioner = required.partitioner(context.num_workers)
        partitions = shuffle(context, scattered, partitioner)
        rdd = RDD(context, partitions, partitioner)
        return matrix.with_scheme_rdd(rdd, required)

    # -- sources -----------------------------------------------------------------

    def _materialise_source(
        self,
        op: LoadOp | RandomOp | FullOp,
        inputs: dict[str, np.ndarray],
        block_size: int,
    ) -> DistributedMatrix:
        if isinstance(op, LoadOp):
            return DistributedMatrix.from_numpy(
                self.context, bound_input(op, inputs), block_size
            )
        if isinstance(op, RandomOp):
            return DistributedMatrix.random(
                self.context, op.rows, op.cols, block_size, seed=op.seed
            )
        array = np.full((op.rows, op.cols), op.value, dtype=np.float64)
        return DistributedMatrix.from_numpy(
            self.context, array, block_size, storage="dense"
        )

    def _resolve_block_size(self, program: MatrixProgram) -> int:
        if self.block_size is not None:
            return self.block_size
        from repro.blocks.memory import program_block_size

        config = self.context.config
        return program_block_size(
            program.dims, config.num_workers, config.threads_per_worker
        )
