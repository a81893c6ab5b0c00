"""Distributed matrices: schemes, placement, and physical operators."""

from repro.matrix.distributed import DistributedMatrix
from repro.matrix.primitives import (
    bmm,
    broadcast_matrix,
    cellwise_op,
    col_sums,
    cpmm,
    extract,
    local_transpose,
    matrix_sq_sum,
    matrix_sum,
    repartition,
    rmm1,
    rmm2,
    row_sums,
    scalar_op_matrix,
)
from repro.matrix.schemes import Scheme, contain, equal_b, equal_rc, oppose

__all__ = [
    "DistributedMatrix",
    "Scheme",
    "bmm",
    "broadcast_matrix",
    "cellwise_op",
    "col_sums",
    "contain",
    "cpmm",
    "equal_b",
    "equal_rc",
    "extract",
    "local_transpose",
    "matrix_sq_sum",
    "matrix_sum",
    "oppose",
    "repartition",
    "rmm1",
    "rmm2",
    "row_sums",
    "scalar_op_matrix",
]
