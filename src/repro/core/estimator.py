"""Worst-case matrix size estimation (paper Section 5.1).

The dependency-oriented cost model needs ``|A|`` -- the size of every matrix
version in the program -- before anything runs.  Dimensions are inferred
exactly by the language layer; sparsity is propagated with the paper's
worst-case rule for a binary operator ``C = op(A, B)``::

    s_C = 1                    if op is (matrix) multiplication
    s_C = min(s_A + s_B, 1)    otherwise

(the paper prints ``Max(s_A + s_B, 1)``, an obvious typo -- a sparsity is
capped at 1, and the union bound of two non-zero patterns is the *minimum*
of the sum and 1).  Unary (scalar) operators preserve sparsity.  Generated
matrices (random/full) are dense.

The estimate is a guaranteed over-approximation: the true sparsity of every
intermediate is at most the estimated one (property-tested in the suite).
"""

from __future__ import annotations

from repro.errors import PlanError
from repro.blocks.ops import ZERO_PRESERVING_UNARY
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


#: Estimation modes: the paper's worst case, and an average case assuming
#: independent uniformly-placed non-zeros (used by the misestimation
#: ablation; the paper explicitly chooses worst-case).
ESTIMATION_MODES = ("worst", "average")


class SizeEstimator:
    """Per-matrix sparsity and byte-size estimates (worst-case by default)."""

    def __init__(self, program: MatrixProgram, mode: str = "worst") -> None:
        if mode not in ESTIMATION_MODES:
            raise PlanError(f"unknown estimation mode {mode!r}")
        self.mode = mode
        self._dims = dict(program.dims)
        self._sparsity: dict[str, float] = {}
        for op in program.ops:
            if isinstance(op, LoadOp):
                self._sparsity[op.output] = op.sparsity
            elif isinstance(op, (RandomOp, FullOp)):
                self._sparsity[op.output] = 1.0
            elif isinstance(op, MatMulOp):
                self._sparsity[op.output] = self.product_sparsity(
                    self.sparsity_of(op.left),
                    self.sparsity_of(op.right),
                    program.dims_of(op.left)[1],
                )
            elif isinstance(op, CellwiseOp):
                left = self.sparsity_of(op.left)
                right = self.sparsity_of(op.right)
                if mode == "average" and op.op == "multiply":
                    self._sparsity[op.output] = left * right
                elif mode == "average" and op.op in ("add", "subtract"):
                    self._sparsity[op.output] = left + right - left * right
                else:
                    self._sparsity[op.output] = min(left + right, 1.0)
            elif isinstance(op, ScalarMatrixOp):
                base = self.sparsity_of(op.operand)
                if op.op in ("add", "subtract") and op.scalar != 0.0:
                    # A non-zero shift fills every implicit zero.
                    self._sparsity[op.output] = 1.0
                else:
                    self._sparsity[op.output] = base
            elif isinstance(op, UnaryMatrixOp):
                if op.func in ZERO_PRESERVING_UNARY:
                    self._sparsity[op.output] = self.sparsity_of(op.operand)
                else:
                    self._sparsity[op.output] = 1.0  # f(0) != 0 densifies
            elif isinstance(op, RowAggOp):
                # A row (column) is non-zero if any of its entries is:
                # union bound (worst) or independence (average).
                in_rows, in_cols = program.dims_of(op.operand)
                reduced = in_cols if op.kind == "rowsum" else in_rows
                base = self.sparsity_of(op.operand)
                if mode == "worst":
                    self._sparsity[op.output] = min(base * reduced, 1.0)
                else:
                    self._sparsity[op.output] = 1.0 - (1.0 - base) ** reduced
            elif isinstance(op, (AggregateOp, ScalarComputeOp)):
                continue  # scalar outputs have no matrix size
            else:  # pragma: no cover - all op kinds enumerated above
                raise PlanError(f"estimator: unknown operator {type(op).__name__}")

    # -- queries -------------------------------------------------------------

    def product_sparsity(self, left: float, right: float, inner: int) -> float:
        """Sparsity of a product of operands this sparse over ``inner``
        terms: dense in the worst case; on average an entry is non-zero
        with probability ``1 - (1 - sA sB)^k``."""
        if self.mode == "worst":
            return 1.0
        return 1.0 - (1.0 - left * right) ** inner

    def sparsity(self, name: str) -> float:
        """Estimated worst-case sparsity of a matrix version."""
        if name not in self._sparsity:
            raise PlanError(f"no sparsity estimate for {name!r}")
        return self._sparsity[name]

    def sparsity_of(self, operand: Operand) -> float:
        """Sparsity of an operand (transposing preserves sparsity)."""
        return self.sparsity(operand.name)

    def dims(self, name: str) -> tuple[int, int]:
        if name not in self._dims:
            raise PlanError(f"no dimensions recorded for {name!r}")
        return self._dims[name]

    def nbytes(self, name: str) -> int:
        """Estimated ``|A|`` in bytes: 8 bytes per estimated non-zero.

        This is the quantity the cost model compares and the heuristics
        threshold on; the constant factor is irrelevant to plan choice.
        """
        rows, cols = self.dims(name)
        return max(1, int(8 * rows * cols * self.sparsity(name)))
