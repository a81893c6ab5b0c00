"""The R-like matrix language: lazy expressions and program building."""

from repro._exports import export_table

_EXPORTS = {
    "AggExpr": "repro.lang.expr",
    "CellwiseExpr": "repro.lang.expr",
    "MatMulExpr": "repro.lang.expr",
    "MatrixExpr": "repro.lang.expr",
    "MatrixRefExpr": "repro.lang.expr",
    "RowAggExpr": "repro.lang.expr",
    "ScalarBinaryExpr": "repro.lang.expr",
    "ScalarConst": "repro.lang.expr",
    "ScalarExpr": "repro.lang.expr",
    "ScalarMatrixExpr": "repro.lang.expr",
    "ScalarRefExpr": "repro.lang.expr",
    "ScalarUnaryExpr": "repro.lang.expr",
    "TransposeExpr": "repro.lang.expr",
    "AggregateOp": "repro.lang.program",
    "CellwiseOp": "repro.lang.program",
    "FullOp": "repro.lang.program",
    "LoadOp": "repro.lang.program",
    "MatMulOp": "repro.lang.program",
    "MatrixProgram": "repro.lang.program",
    "OpNode": "repro.lang.program",
    "Operand": "repro.lang.program",
    "ProgramBuilder": "repro.lang.program",
    "RandomOp": "repro.lang.program",
    "RowAggOp": "repro.lang.program",
    "ScalarComputeOp": "repro.lang.program",
    "ScalarMatrixOp": "repro.lang.program",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
