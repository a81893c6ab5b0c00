"""Splitting matrices into block grids and assembling them back.

DMac partitions every matrix twice (paper Section 5.3): first into square
``block_size`` x ``block_size`` blocks -- the base computing unit -- and then
the *blocks* are distributed across workers by the partition scheme.  This
module implements the first level: driver-side matrix (a dense ndarray or a
:class:`~repro.blocks.coordinate.CoordinateMatrix`) -> block grid -> ndarray.

Blocks are addressed by ``(block_row, block_col)`` indices.  Edge blocks are
smaller when the matrix dimensions are not multiples of the block size.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from repro.blocks.coordinate import CoordinateMatrix, as_matrix
from repro.blocks.dense import DenseBlock
from repro.blocks.ops import Block
from repro.blocks.sparse import CSCBlock, _sparsetools
from repro.errors import BlockError

#: Blocks whose density is below this fraction are stored in CSC format
#: when the storage format is chosen automatically.
DEFAULT_SPARSE_THRESHOLD = 0.3

BlockGrid = dict[tuple[int, int], Block]


def grid_shape(rows: int, cols: int, block_size: int) -> tuple[int, int]:
    """Number of block rows and block columns for a matrix of the given shape."""
    if block_size < 1:
        raise BlockError(f"block_size must be >= 1, got {block_size}")
    return math.ceil(rows / block_size), math.ceil(cols / block_size)


def block_extent(index: int, dim: int, block_size: int) -> tuple[int, int]:
    """Half-open ``[start, stop)`` range covered by block ``index`` along a
    dimension of length ``dim``."""
    start = index * block_size
    if start >= dim:
        raise BlockError(f"block index {index} out of range for dim {dim}")
    return start, min(start + block_size, dim)


def split(
    array: np.ndarray | CoordinateMatrix,
    block_size: int,
    storage: str = "auto",
    sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD,
) -> BlockGrid:
    """Split a matrix into a grid of blocks.

    Args:
        array: the matrix to split: a 2-D numpy array, or a
            :class:`CoordinateMatrix`, which is cut without a dense
            intermediate into the blocks its ``to_numpy()`` would be cut
            into -- same storage class, same bytes -- except that its
            all-zero blocks are left out of the grid, not built.
        block_size: rows/columns per square block.
        storage: ``"dense"``, ``"sparse"`` or ``"auto"`` (per-block choice by
            density against ``sparse_threshold``).
    """
    arr = as_matrix(array)
    if storage not in ("auto", "dense", "sparse"):
        raise BlockError(f"unknown storage policy {storage!r}")
    if isinstance(arr, CoordinateMatrix):
        return _split_coordinate(arr, block_size, storage, sparse_threshold)
    if arr.ndim != 2:
        raise BlockError(f"expected a 2-D array, got ndim={arr.ndim}")
    rows, cols = arr.shape
    block_rows, block_cols = grid_shape(rows, cols, block_size)
    grid: BlockGrid = {}
    for bi in range(block_rows):
        r0, r1 = block_extent(bi, rows, block_size)
        for bj in range(block_cols):
            c0, c1 = block_extent(bj, cols, block_size)
            piece = arr[r0:r1, c0:c1]
            grid[(bi, bj)] = _wrap(piece, storage, sparse_threshold)
    return grid


def _split_coordinate(
    matrix: CoordinateMatrix, block_size: int, storage: str, sparse_threshold: float
) -> BlockGrid:
    """The non-empty blocks of a coordinate matrix, in one compiled pass.

    The triples are canonical -- sorted by ``(col, row)`` -- so a counting
    sort of them by ``(block row, col)``, scipy's compiled ``coo_tocsr``
    with one line per block row and column, keeps every line's rows
    ascending and lays each block out contiguously, column-major: its
    ``values`` and local ``row_idx`` are slices of the arrays the pass
    fills, its ``colptr`` a slice of the line offsets.
    """
    rows, cols = matrix.shape
    block_rows, block_cols = grid_shape(rows, cols, block_size)
    lines = block_rows * cols
    index = np.promote_types(np.int32, np.min_scalar_type(max(matrix.nnz, lines)))
    block_row, local_row = np.divmod(matrix.rows, block_size)
    offsets = np.empty(lines + 1, dtype=index)
    row_idx = np.empty(matrix.nnz, dtype=index)
    values = np.empty(matrix.nnz, dtype=np.float64)
    _sparsetools().coo_tocsr(
        lines, block_size, matrix.nnz, (block_row * cols + matrix.cols).astype(index),
        local_row.astype(index), matrix.values, offsets, row_idx, values,
    )
    row_idx.flags.writeable = False
    edges = np.minimum(np.arange(block_cols + 1) * block_size, cols)
    bounds = offsets[np.arange(block_rows)[:, None] * cols + edges]
    grid: BlockGrid = {}
    for i, j in zip(*np.nonzero(bounds[:, 1:] > bounds[:, :-1])):
        (r0, r1), (c0, c1) = block_extent(i, rows, block_size), block_extent(j, cols, block_size)
        colptr = offsets[i * cols + c0 : i * cols + c1 + 1]
        lo, hi = colptr[0], colptr[-1]
        colptr = colptr - lo
        colptr.flags.writeable = False
        block = CSCBlock((r1 - r0, c1 - c0), values[lo:hi], row_idx[lo:hi], colptr)
        sparse = storage == "sparse" or (
            storage == "auto" and block.nnz / ((r1 - r0) * (c1 - c0)) < sparse_threshold
        )
        grid[(int(i), int(j))] = block if sparse else block.to_dense_block()
    return grid


def _wrap(piece: np.ndarray, storage: str, sparse_threshold: float) -> Block:
    if storage == "dense":
        return DenseBlock(piece)
    if storage == "sparse":
        return CSCBlock.from_dense(piece)
    # One pass over the floats: the mask elects the format and, for a sparse
    # block only, is what gets compressed (a dense block extracts nothing).
    pattern = piece != 0
    size = piece.size
    density = np.count_nonzero(pattern) / size if size else 0.0
    if density < sparse_threshold:
        return CSCBlock._from_mask(piece, pattern)
    return DenseBlock(piece)


def assemble(
    grid: Mapping[tuple[int, int], Block],
    shape: tuple[int, int],
    block_size: int,
) -> np.ndarray:
    """Reassemble a block grid into a dense numpy array.

    Missing blocks are treated as all-zero (the distributed layer drops
    empty sparse blocks).
    """
    rows, cols = shape
    out = np.zeros((rows, cols), dtype=np.float64)
    block_rows, block_cols = grid_shape(rows, cols, block_size)
    for (bi, bj), block in grid.items():
        if not (0 <= bi < block_rows and 0 <= bj < block_cols):
            raise BlockError(f"block index {(bi, bj)} out of range for shape {shape}")
        r0, r1 = block_extent(bi, rows, block_size)
        c0, c1 = block_extent(bj, cols, block_size)
        expected = (r1 - r0, c1 - c0)
        if block.shape != expected:
            raise BlockError(
                f"block {(bi, bj)} has shape {block.shape}, expected {expected}"
            )
        out[r0:r1, c0:c1] = block.to_numpy() if isinstance(block, CSCBlock) else block.data
    return out


def grid_model_nbytes(grid: Mapping[tuple[int, int], Block]) -> int:
    """Total memory of a grid under the paper's model (Equation 2 summed
    block by block)."""
    return sum(block.model_nbytes for block in grid.values())
