"""The kernels' backend: where a plan step's block operations run.

The operator kernels in :mod:`repro.runtime.registry` make every physical
call through the execution state's backend: materialise a source, apply an
extended operator, run a compute strategy, aggregate to a driver scalar.
:class:`SimulatedBackend` maps each call onto the physical primitives of
:mod:`repro.matrix.primitives` over its
:class:`~repro.rdd.context.ClusterContext`.  Everything else a run reads
of the cluster -- membership, cache accounting, ledger, clock, fault
injection -- is the context's.

``PlanExecutor(context, backend=...)`` takes any object with these nine
methods, so a delegating wrapper sees every kernel call of a run.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.coordinate import CoordinateMatrix, as_matrix
from repro.errors import ExecutionError
from repro.lang.program import FullOp, LoadOp, RandomOp
from repro.matrix.distributed import DistributedMatrix
from repro.localexec.fused import FusedChain, one_link
from repro.matrix.primitives import (
    bmm,
    broadcast_matrix,
    col_sums,
    cpmm,
    extract,
    fused_cellwise_op,
    local_transpose,
    matrix_sq_sum,
    matrix_sum,
    repartition,
    rmm1,
    rmm2,
    row_sums,
    scalar_op_matrix,
    unary_op_matrix,
)
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext


def bound_input(op: LoadOp, inputs: dict) -> np.ndarray | CoordinateMatrix:
    """The driver-side matrix bound to a load, in the form it was given
    (:func:`repro.blocks.as_matrix`), checked against the declared shape."""
    if op.output not in inputs:
        raise ExecutionError(f"no input array bound for load {op.output!r}")
    array = as_matrix(inputs[op.output])
    if array.shape != (op.rows, op.cols):
        raise ExecutionError(
            f"input {op.output!r} has shape {array.shape}, "
            f"program declared {(op.rows, op.cols)}"
        )
    return array


class SimulatedBackend:
    """The physical operators of the in-process metered cluster."""

    def __init__(self, context: ClusterContext) -> None:
        self.context = context

    def materialise_source(
        self,
        op: LoadOp | RandomOp | FullOp,
        scheme: Scheme,
        block_size: int,
        inputs: dict[str, np.ndarray],
    ) -> DistributedMatrix:
        if isinstance(op, LoadOp):
            return DistributedMatrix.from_numpy(
                self.context, bound_input(op, inputs), block_size, scheme
            )
        if isinstance(op, RandomOp):
            return DistributedMatrix.random(
                self.context, op.rows, op.cols, block_size, scheme, seed=op.seed
            )
        if isinstance(op, FullOp):
            array = np.full((op.rows, op.cols), op.value, dtype=np.float64)
            return DistributedMatrix.from_numpy(
                self.context, array, block_size, scheme, storage="dense"
            )
        raise ExecutionError(f"unknown source operator {type(op).__name__}")

    def extended(
        self, kind: str, source: DistributedMatrix, target_scheme: Scheme
    ) -> DistributedMatrix:
        if kind == "partition":
            return repartition(source, target_scheme)
        if kind == "broadcast":
            return broadcast_matrix(source)
        if kind == "transpose":
            return local_transpose(source)
        if kind == "extract":
            return extract(source, target_scheme)
        raise ExecutionError(f"unknown extended operator {kind!r}")

    def matmul(
        self,
        strategy: str,
        left: DistributedMatrix,
        right: DistributedMatrix,
        output_scheme: Scheme,
    ) -> DistributedMatrix:
        if strategy == "rmm1":
            return rmm1(left, right)
        if strategy == "rmm2":
            return rmm2(left, right)
        if strategy == "cpmm":
            return cpmm(left, right, output_scheme=output_scheme)
        if strategy == "bmm":
            return bmm(left, right)
        raise ExecutionError(f"unknown matmul strategy {strategy!r}")

    def cellwise(
        self, op: str, left: DistributedMatrix, right: DistributedMatrix
    ) -> DistributedMatrix:
        return fused_cellwise_op(one_link(op), (left, right))

    def fused_cellwise(
        self, chain: FusedChain, operands: tuple[DistributedMatrix, ...]
    ) -> DistributedMatrix:
        return fused_cellwise_op(chain, operands)

    def scalar_op(
        self, op: str, source: DistributedMatrix, value: float
    ) -> DistributedMatrix:
        return scalar_op_matrix(op, source, value)

    def unary(self, func: str, source: DistributedMatrix) -> DistributedMatrix:
        return unary_op_matrix(func, source)

    def row_agg(
        self,
        kind: str,
        source: DistributedMatrix,
        output_scheme: Scheme,
        communicates: bool,
    ) -> DistributedMatrix:
        aggregate = row_sums if kind == "rowsum" else col_sums
        if communicates:
            return aggregate(source, output_scheme=output_scheme)
        return aggregate(source)

    def aggregate(self, kind: str, source: DistributedMatrix) -> float:
        if kind == "sum":
            return matrix_sum(source)
        if kind == "sqsum":
            return matrix_sq_sum(source)
        if kind == "value":
            return source.value()
        raise ExecutionError(f"unknown aggregation {kind!r}")
