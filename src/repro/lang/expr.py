"""R-like matrix expression AST (paper Section 5.4, Appendix A).

DMac exposes matrix programs through operator overloading, mirroring the
paper's Scala DSL:

===============================  =====================================
paper (Scala)                    this library (Python)
===============================  =====================================
``W.t %*% V``                    ``W.T @ V``
``H * (...)`` (cell-wise)        ``H * (...)``
``X / Y`` (cell-wise)            ``X / Y``
``rank * 0.85 + D * 0.15``       ``rank * 0.85 + D * 0.15``
``(r * r).sum``                  ``(r * r).sum()``
``(p.t %*% q).value``            ``(p.T @ q).value()``
``v.norm(2)``                    ``v.norm2()``
===============================  =====================================

Expressions are lazy ASTs; :class:`~repro.lang.program.ProgramBuilder`
flattens them into the operator sequence the planner consumes.  Transposes
never become operators of their own -- they mark the *operand reference*,
which is exactly how the paper's matrix dependencies capture ``B = A^T``.

Scalar values (aggregates, driver arithmetic) form a parallel little AST
evaluated on the driver at run time; plans do not depend on their values.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Union

from repro.errors import ProgramError

Number = Union[int, float]

#: Aggregation kinds producing driver scalars.
AGG_KINDS = ("sum", "sqsum", "value")

#: Driver-side scalar arithmetic.
SCALAR_BINARY_OPS = ("add", "subtract", "multiply", "divide")
SCALAR_UNARY_OPS = ("sqrt", "negate")


#: The driver-side scalar operators as functions of their operands.
_SCALAR_FUNCS = {
    "add": operator.add,
    "subtract": operator.sub,
    "multiply": operator.mul,
    "divide": operator.truediv,
    "negate": operator.neg,
    "sqrt": math.sqrt,
}


def scalar_arithmetic(op: str, *operands: float) -> float:
    """One scalar operator: a binary op on two operands or a unary op on one.

    The one definition of this arithmetic: ``ProgramBuilder``'s constant
    folding, the frontend's number folding and run-time evaluation all call
    it, so a folded constant equals, bit for bit, what the program computes
    when it runs.
    Raises :class:`ZeroDivisionError` (divide by zero; numpy scalars would
    return ``inf``) or :class:`ValueError` (sqrt of a negative value); each
    caller re-raises as its own error type.
    """
    arity = 2 if op in SCALAR_BINARY_OPS else 1 if op in SCALAR_UNARY_OPS else 0
    if not arity:
        raise ProgramError(f"unknown scalar operator {op!r}")
    if len(operands) != arity:
        raise ProgramError(f"scalar {op} takes {arity} operand(s), got {len(operands)}")
    if op == "divide" and operands[1] == 0:
        raise ZeroDivisionError("scalar division by zero")
    if op == "sqrt" and operands[0] < 0:
        raise ValueError(f"sqrt of negative value {operands[0]}")
    return _SCALAR_FUNCS[op](*operands)


# ---------------------------------------------------------------------------
# Scalar expressions (driver side)
# ---------------------------------------------------------------------------


class ScalarExpr:
    """A lazy driver-side scalar value."""

    def _binary(self, op: str, other: object, reflected: bool = False) -> "ScalarExpr":
        other_expr = as_scalar_expr(other)
        if other_expr is None:
            return NotImplemented  # type: ignore[return-value]
        left, right = (other_expr, self) if reflected else (self, other_expr)
        return ScalarBinaryExpr(op, left, right)

    def __add__(self, other: object) -> "ScalarExpr":
        return self._binary("add", other)

    def __radd__(self, other: object) -> "ScalarExpr":
        return self._binary("add", other, reflected=True)

    def __sub__(self, other: object) -> "ScalarExpr":
        return self._binary("subtract", other)

    def __rsub__(self, other: object) -> "ScalarExpr":
        return self._binary("subtract", other, reflected=True)

    def __mul__(self, other: object):
        if isinstance(other, MatrixExpr):
            return ScalarMatrixExpr("multiply", other, self)
        return self._binary("multiply", other)

    def __rmul__(self, other: object) -> "ScalarExpr":
        return self._binary("multiply", other, reflected=True)

    def __truediv__(self, other: object) -> "ScalarExpr":
        return self._binary("divide", other)

    def __rtruediv__(self, other: object) -> "ScalarExpr":
        return self._binary("divide", other, reflected=True)

    def __neg__(self) -> "ScalarExpr":
        return ScalarUnaryExpr("negate", self)

    def sqrt(self) -> "ScalarExpr":
        return ScalarUnaryExpr("sqrt", self)


@dataclasses.dataclass(frozen=True)
class ScalarConst(ScalarExpr):
    """A literal number."""

    value: float


@dataclasses.dataclass(frozen=True)
class ScalarRefExpr(ScalarExpr):
    """Reference to a named driver scalar produced earlier in the program."""

    name: str


@dataclasses.dataclass(frozen=True)
class ScalarBinaryExpr(ScalarExpr):
    op: str
    left: ScalarExpr
    right: ScalarExpr

    def __post_init__(self) -> None:
        if self.op not in SCALAR_BINARY_OPS:
            raise ProgramError(f"unknown scalar operator {self.op!r}")


@dataclasses.dataclass(frozen=True)
class ScalarUnaryExpr(ScalarExpr):
    op: str
    child: ScalarExpr

    def __post_init__(self) -> None:
        if self.op not in SCALAR_UNARY_OPS:
            raise ProgramError(f"unknown scalar function {self.op!r}")


@dataclasses.dataclass(frozen=True)
class AggExpr(ScalarExpr):
    """An aggregate of a matrix expression: ``sum``, ``sqsum`` or ``value``
    (the single entry of a 1x1 result)."""

    kind: str
    child: "MatrixExpr"

    def __post_init__(self) -> None:
        if self.kind not in AGG_KINDS:
            raise ProgramError(f"unknown aggregation {self.kind!r}")


def as_scalar_expr(value: object) -> ScalarExpr | None:
    """Coerce numbers (and pass scalar expressions through); ``None`` if
    the value is not scalar-like."""
    if isinstance(value, ScalarExpr):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ScalarConst(float(value))
    return None


# ---------------------------------------------------------------------------
# Matrix expressions
# ---------------------------------------------------------------------------


class MatrixExpr:
    """A lazy matrix-valued expression."""

    # matrix multiplication: the paper's %*%
    def __matmul__(self, other: "MatrixExpr") -> "MatrixExpr":
        if not isinstance(other, MatrixExpr):
            raise ProgramError(f"@ requires a matrix operand, got {type(other).__name__}")
        return MatMulExpr(self, other)

    def _cellwise_or_scalar(self, op: str, other: object, reflected: bool = False):
        if isinstance(other, MatrixExpr):
            left, right = (other, self) if reflected else (self, other)
            return CellwiseExpr(op, left, right)
        scalar = as_scalar_expr(other)
        if scalar is None:
            return NotImplemented
        if reflected and op in ("subtract", "divide"):
            raise ProgramError(
                f"scalar {op} with the matrix on the right is not supported; "
                "rewrite e.g. `s - M` as `M * -1 + s`"
            )
        return ScalarMatrixExpr(op, self, scalar)

    def __mul__(self, other: object):
        return self._cellwise_or_scalar("multiply", other)

    def __rmul__(self, other: object):
        return self._cellwise_or_scalar("multiply", other, reflected=True)

    def __truediv__(self, other: object):
        return self._cellwise_or_scalar("divide", other)

    def __rtruediv__(self, other: object):
        return self._cellwise_or_scalar("divide", other, reflected=True)

    def __add__(self, other: object):
        return self._cellwise_or_scalar("add", other)

    def __radd__(self, other: object):
        return self._cellwise_or_scalar("add", other, reflected=True)

    def __sub__(self, other: object):
        return self._cellwise_or_scalar("subtract", other)

    def __rsub__(self, other: object):
        return self._cellwise_or_scalar("subtract", other, reflected=True)

    def __neg__(self) -> "MatrixExpr":
        return ScalarMatrixExpr("multiply", self, ScalarConst(-1.0))

    @property
    def T(self) -> "MatrixExpr":
        """Transpose (the paper's ``.t``).  Double transposes cancel."""
        if isinstance(self, TransposeExpr):
            return self.child
        return TransposeExpr(self)

    def sum(self) -> ScalarExpr:
        """Sum of all entries (driver scalar)."""
        return AggExpr("sum", self)

    def sq_sum(self) -> ScalarExpr:
        """Sum of squared entries (driver scalar)."""
        return AggExpr("sqsum", self)

    def norm2(self) -> ScalarExpr:
        """Frobenius norm -- the paper's ``v.norm(2)``."""
        return AggExpr("sqsum", self).sqrt()

    def value(self) -> ScalarExpr:
        """The single entry of a 1x1 result (the paper's ``.value``)."""
        return AggExpr("value", self)

    def row_sums(self) -> "MatrixExpr":
        """Per-row sums as an ``M x 1`` matrix (distributed, not a scalar)."""
        return RowAggExpr("rowsum", self)

    # element-wise unary functions
    def exp(self) -> "MatrixExpr":
        """Element-wise ``e**x`` (densifies sparse inputs)."""
        return UnaryExpr("exp", self)

    def log(self) -> "MatrixExpr":
        """Element-wise natural logarithm."""
        return UnaryExpr("log", self)

    def sqrt(self) -> "MatrixExpr":
        """Element-wise square root (sparsity preserved)."""
        return UnaryExpr("sqrt", self)

    def abs(self) -> "MatrixExpr":
        """Element-wise absolute value (sparsity preserved)."""
        return UnaryExpr("abs", self)

    def sign(self) -> "MatrixExpr":
        """Element-wise sign (sparsity preserved)."""
        return UnaryExpr("sign", self)

    def sigmoid(self) -> "MatrixExpr":
        """Element-wise logistic function ``1 / (1 + e**-x)``."""
        return UnaryExpr("sigmoid", self)

    def reciprocal(self) -> "MatrixExpr":
        """Element-wise ``1 / x``."""
        return UnaryExpr("reciprocal", self)

    def col_sums(self) -> "MatrixExpr":
        """Per-column sums as a ``1 x N`` matrix."""
        return RowAggExpr("colsum", self)


@dataclasses.dataclass(frozen=True)
class MatrixRefExpr(MatrixExpr):
    """Reference to a named matrix version in the program."""

    name: str


@dataclasses.dataclass(frozen=True)
class TransposeExpr(MatrixExpr):
    child: MatrixExpr


@dataclasses.dataclass(frozen=True)
class MatMulExpr(MatrixExpr):
    left: MatrixExpr
    right: MatrixExpr


@dataclasses.dataclass(frozen=True)
class CellwiseExpr(MatrixExpr):
    op: str
    left: MatrixExpr
    right: MatrixExpr

    def __post_init__(self) -> None:
        if self.op not in SCALAR_BINARY_OPS:
            raise ProgramError(f"unknown cell-wise operator {self.op!r}")


@dataclasses.dataclass(frozen=True)
class UnaryExpr(MatrixExpr):
    """Element-wise unary function of a matrix expression."""

    func: str
    child: MatrixExpr

    def __post_init__(self) -> None:
        from repro.blocks.ops import UNARY_FUNCS

        if self.func not in UNARY_FUNCS:
            raise ProgramError(f"unknown unary function {self.func!r}")


@dataclasses.dataclass(frozen=True)
class RowAggExpr(MatrixExpr):
    """Row or column sums of a matrix expression (matrix-valued)."""

    kind: str  # "rowsum" | "colsum"
    child: MatrixExpr

    def __post_init__(self) -> None:
        if self.kind not in ("rowsum", "colsum"):
            raise ProgramError(f"unknown axis aggregation {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class ScalarMatrixExpr(MatrixExpr):
    """``matrix <op> scalar`` element-wise (the paper's unary operator
    between a constant and a matrix)."""

    op: str
    child: MatrixExpr
    scalar: ScalarExpr

    def __post_init__(self) -> None:
        if self.op not in SCALAR_BINARY_OPS:
            raise ProgramError(f"unknown scalar-matrix operator {self.op!r}")
