"""Single-machine in-memory baseline (the paper's "R" line, Figure 6a).

Interprets the same decomposed matrix program directly with numpy on one
node, with no communication at all.  Simulated time is pure compute on one
machine's thread pool under the shared clock model, so the series is
comparable with the distributed systems' simulated seconds.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.config import ClockConfig
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
from repro.runtime.backend import bound_input
from repro.runtime.executor import evaluate_scalar

#: Density below which the single-machine flop model counts only non-zeros.
_SPARSE_FLOP_DENSITY = 0.5


@dataclasses.dataclass
class LocalResult:
    """Outputs and simulated single-machine cost of a local run."""

    matrices: dict[str, np.ndarray]
    scalars: dict[str, float]
    simulated_seconds: float
    flops: int
    wall_seconds: float


def run_local(
    program: MatrixProgram,
    inputs: dict[str, np.ndarray] | None = None,
    clock: ClockConfig | None = None,
    threads: int = 8,
) -> LocalResult:
    """Execute ``program`` on one machine with numpy.

    Args:
        program: a built :class:`MatrixProgram`.
        inputs: arrays for the program's LoadOps.
        clock: hardware model used to convert flops into seconds.
        threads: local parallelism assumed by the time model (the paper's
            single R process effectively uses the machine's cores for BLAS).
    """
    inputs = inputs or {}
    clock = clock or ClockConfig()
    env: dict[str, np.ndarray] = {}
    scalars: dict[str, float] = {}
    flops = 0
    wall_start = time.perf_counter()

    def resolve(operand: Operand) -> np.ndarray:
        if operand.name not in env:
            raise ExecutionError(f"operand {operand} used before production")
        array = env[operand.name]
        return array.T if operand.transposed else array

    for op in program.ops:
        if isinstance(op, LoadOp):
            # R holds every matrix dense: a coordinate input is densified here.
            env[op.output] = np.asarray(bound_input(op, inputs))
        elif isinstance(op, RandomOp):
            env[op.output] = np.random.default_rng(op.seed).random((op.rows, op.cols))
        elif isinstance(op, FullOp):
            env[op.output] = np.full((op.rows, op.cols), op.value)
        elif isinstance(op, MatMulOp):
            left, right = resolve(op.left), resolve(op.right)
            env[op.output] = left @ right
            flops += _matmul_flops(left, right)
        elif isinstance(op, CellwiseOp):
            left, right = resolve(op.left), resolve(op.right)
            with np.errstate(divide="ignore", invalid="ignore"):
                env[op.output] = _CELLWISE[op.op](left, right)
            flops += left.size
        elif isinstance(op, ScalarMatrixOp):
            source = resolve(op.operand)
            value = scalars[op.scalar] if isinstance(op.scalar, str) else float(op.scalar)
            env[op.output] = _CELLWISE[op.op](source, value)
            flops += source.size
        elif isinstance(op, UnaryMatrixOp):
            from repro.blocks.ops import apply_unary

            source = resolve(op.operand)
            env[op.output] = apply_unary(op.func, source)
            flops += source.size
        elif isinstance(op, RowAggOp):
            source = resolve(op.operand)
            axis = 1 if op.kind == "rowsum" else 0
            env[op.output] = source.sum(axis=axis, keepdims=True)
            flops += source.size
        elif isinstance(op, AggregateOp):
            source = resolve(op.operand)
            if op.kind == "sum":
                scalars[op.output] = float(source.sum())
            elif op.kind == "sqsum":
                scalars[op.output] = float(np.square(source).sum())
            else:
                scalars[op.output] = float(source[0, 0])
            flops += source.size
        elif isinstance(op, ScalarComputeOp):
            scalars[op.output] = evaluate_scalar(op.expr, scalars)
        else:  # pragma: no cover - all op kinds enumerated
            raise ExecutionError(f"local baseline: unknown operator {type(op).__name__}")

    return LocalResult(
        matrices={name: env[name] for name in program.outputs},
        scalars={name: scalars[name] for name in program.scalar_outputs},
        simulated_seconds=flops / (clock.dense_flops_per_sec * threads),
        flops=flops,
        wall_seconds=time.perf_counter() - wall_start,
    )


def _matmul_flops(left: np.ndarray, right: np.ndarray) -> int:
    m, k = left.shape
    n = right.shape[1]
    left_density = np.count_nonzero(left) / max(left.size, 1)
    if left_density < _SPARSE_FLOP_DENSITY:
        return int(2 * np.count_nonzero(left) * n)
    return 2 * m * k * n


def _divide(left, right):
    return left / right


_CELLWISE = {
    "add": np.add,
    "subtract": np.subtract,
    "multiply": np.multiply,
    "divide": _divide,
}
