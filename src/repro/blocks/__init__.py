"""Block-based local matrix substrate (paper Section 5.3).

Dense and CSC sparse blocks, the pure compute kernels that operate on them,
the paper's memory model (Equation 2) and block-size rule (Equation 3), and
helpers to split driver-side matrices (dense ndarrays or coordinate
triples) into block grids and assemble them back.
"""

from repro.blocks.conversion import (
    BlockGrid,
    assemble,
    block_extent,
    grid_model_nbytes,
    grid_shape,
    split,
)
from repro.blocks.coordinate import CoordinateMatrix, as_matrix
from repro.blocks.dense import DenseBlock
from repro.blocks.memory import (
    choose_block_size,
    dense_block_model_bytes,
    matrix_model_bytes,
    max_block_size,
    sparse_block_model_bytes,
)
from repro.blocks.ops import (
    CELLWISE_OPS,
    Block,
    accumulate,
    block_col_sums,
    block_row_sums,
    block_sq_sum,
    block_sum,
    cellwise,
    cellwise_flops,
    matmul,
    matmul_flops,
    scalar_op,
    transpose,
)
from repro.blocks.sparse import CSCBlock

__all__ = [
    "Block",
    "BlockGrid",
    "CELLWISE_OPS",
    "CSCBlock",
    "CoordinateMatrix",
    "DenseBlock",
    "accumulate",
    "as_matrix",
    "assemble",
    "block_extent",
    "block_col_sums",
    "block_row_sums",
    "block_sq_sum",
    "block_sum",
    "cellwise",
    "cellwise_flops",
    "choose_block_size",
    "dense_block_model_bytes",
    "grid_model_nbytes",
    "grid_shape",
    "matmul",
    "matmul_flops",
    "matrix_model_bytes",
    "max_block_size",
    "scalar_op",
    "sparse_block_model_bytes",
    "split",
    "transpose",
]
