"""Distributed matrices: schemes, placement, and physical operators."""

from repro._exports import export_table

_EXPORTS = {
    "DistributedMatrix": "repro.matrix.distributed",
    "bmm": "repro.matrix.primitives",
    "broadcast_matrix": "repro.matrix.primitives",
    "col_sums": "repro.matrix.primitives",
    "cpmm": "repro.matrix.primitives",
    "extract": "repro.matrix.primitives",
    "local_transpose": "repro.matrix.primitives",
    "matrix_sq_sum": "repro.matrix.primitives",
    "matrix_sum": "repro.matrix.primitives",
    "repartition": "repro.matrix.primitives",
    "rmm1": "repro.matrix.primitives",
    "rmm2": "repro.matrix.primitives",
    "row_sums": "repro.matrix.primitives",
    "scalar_op_matrix": "repro.matrix.primitives",
    "Scheme": "repro.matrix.schemes",
    "contain": "repro.matrix.schemes",
    "equal_b": "repro.matrix.schemes",
    "equal_rc": "repro.matrix.schemes",
    "oppose": "repro.matrix.schemes",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
