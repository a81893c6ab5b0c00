"""Driver-side scalar evaluation (shared by kernels and baselines)."""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.lang.expr import (
    ScalarBinaryExpr,
    ScalarConst,
    ScalarExpr,
    ScalarRefExpr,
    ScalarUnaryExpr,
    scalar_arithmetic,
)


def evaluate_scalar(expr: ScalarExpr, scalars: dict[str, float]) -> float:
    """Evaluate a driver-side scalar expression against computed scalars."""
    if isinstance(expr, ScalarConst):
        return expr.value
    if isinstance(expr, ScalarRefExpr):
        if expr.name not in scalars:
            raise ExecutionError(f"scalar {expr.name!r} referenced before computation")
        return scalars[expr.name]
    if isinstance(expr, ScalarBinaryExpr):
        operands = (evaluate_scalar(expr.left, scalars), evaluate_scalar(expr.right, scalars))
    elif isinstance(expr, ScalarUnaryExpr):
        operands = (evaluate_scalar(expr.child, scalars),)
    else:
        raise ExecutionError(f"unknown scalar expression {type(expr).__name__}")
    try:
        return scalar_arithmetic(expr.op, *operands)
    except (ZeroDivisionError, ValueError) as error:
        raise ExecutionError(f"{error} at run time") from None
