"""Block-based local matrix substrate (paper Section 5.3).

Dense and CSC sparse blocks, the pure compute kernels that operate on them,
the paper's memory model (Equation 2) and block-size rule (Equation 3), and
helpers to split driver-side matrices (dense ndarrays or coordinate
triples) into block grids and assemble them back.
"""

from repro._exports import export_table

_EXPORTS = {
    "assemble": "repro.blocks.conversion",
    "block_extent": "repro.blocks.conversion",
    "grid_shape": "repro.blocks.conversion",
    "split": "repro.blocks.conversion",
    "CoordinateMatrix": "repro.blocks.coordinate",
    "as_matrix": "repro.blocks.coordinate",
    "DenseBlock": "repro.blocks.dense",
    "dense_block_model_bytes": "repro.blocks.memory",
    "matrix_model_bytes": "repro.blocks.memory",
    "max_block_size": "repro.blocks.memory",
    "CELLWISE_OPS": "repro.blocks.ops",
    "Block": "repro.blocks.ops",
    "accumulate": "repro.blocks.ops",
    "block_col_sums": "repro.blocks.ops",
    "block_row_sums": "repro.blocks.ops",
    "block_sq_sum": "repro.blocks.ops",
    "block_sum": "repro.blocks.ops",
    "cellwise": "repro.blocks.ops",
    "cellwise_flops": "repro.blocks.ops",
    "matmul": "repro.blocks.ops",
    "matmul_flops": "repro.blocks.ops",
    "scalar_op": "repro.blocks.ops",
    "CSCBlock": "repro.blocks.sparse",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
