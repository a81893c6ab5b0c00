"""Block-level compute kernels.

These kernels operate on single blocks (:class:`~repro.blocks.dense.DenseBlock`
or :class:`~repro.blocks.sparse.CSCBlock`) and are the base computing units
scheduled by the local engine (paper Section 5.3).  All kernels are pure:
they never mutate their inputs (the one deliberate exception is
:func:`accumulate`, which implements the In-Place aggregation and says so).

Output-format policy
--------------------
* ``matmul`` always yields a dense block.  This mirrors the paper's
  worst-case estimator, which pins the sparsity of any multiplication
  result to 1 (Section 5.1).
* cell-wise ``multiply`` with at least one sparse operand yields a sparse
  block (the result pattern is contained in the sparse operand's pattern).
* cell-wise ``add``/``subtract`` of two sparse blocks stays sparse (union
  pattern); mixing sparse with dense densifies.
* cell-wise ``divide`` yields a sparse block only when the numerator is
  sparse and the denominator dense; otherwise dense.
* scalar ``multiply``/``divide`` preserve the operand's format; scalar
  ``add``/``subtract`` with a non-zero constant densify a sparse operand.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.dense import DenseBlock
from repro.blocks.sparse import CSCBlock, _sparsetools
from repro.errors import BlockError, ShapeError

Block = DenseBlock | CSCBlock

#: Binary cell-wise operators supported by DMac (paper Section 3.1).
CELLWISE_OPS = ("add", "subtract", "multiply", "divide")


def _check_same_shape(a: Block, b: Block, what: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{what} requires equal shapes, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# Matrix multiplication
# ---------------------------------------------------------------------------


def matmul(a: Block, b: Block) -> DenseBlock:
    """Block matrix product ``a @ b``; the result is always dense, freshly
    allocated, and holds no ``-0.0`` (every path starts its sums at ``+0.0``),
    so the In-Place task may adopt it as its result block."""
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if isinstance(a, DenseBlock) and isinstance(b, DenseBlock):
        return DenseBlock(a.data @ b.data)
    if isinstance(a, DenseBlock):
        # out[:, c] += v * a[:, r] for every stored b[r, c] = v.
        return DenseBlock(_sparse_product(b, 1, a.data))
    if isinstance(b, CSCBlock):
        b = b.to_dense_block()
    # out[r, :] += v * b[c, :] for every stored a[r, c] = v.
    return DenseBlock(_sparse_product(a, 0, b.data))


def _sparse_product(sparse: CSCBlock, axis: int, dense: np.ndarray) -> np.ndarray:
    """``sparse @ dense`` (``axis`` 0) or ``dense @ sparse`` (``axis`` 1).

    For every stored entry ``e`` of the sparse operand, ``values[e]`` times
    slice ``gather[e]`` of ``dense`` is added onto slice ``scatter[e]`` of
    the output, both slices taken along ``axis`` (0: rows, 1: columns), and
    every output cell receives its contributions one at a time, in the
    sparse operand's storage order, starting from ``0.0``.  That loop is
    scipy's compiled ``csc_matvecs`` / ``csr_matvecs`` (``csc_matvec`` /
    ``csr_matvec`` for a single line: the same additions in the same
    order, half the time), run on the block's own arrays.
    """
    # ``dense @ sparse`` is ``(sparseᵀ @ denseᵀ)ᵀ``, and the block's arrays
    # read as CSR are ``sparseᵀ``.
    rows, cols = sparse.shape[::-1] if axis else sparse.shape
    x = np.ascontiguousarray(dense.T if axis else dense)
    lines = x.shape[1]
    out = np.zeros((rows, lines), dtype=np.float64)
    arrays = sparse.colptr, sparse.row_idx, sparse.values, x.ravel(), out.ravel()
    sparsetools = _sparsetools()
    if lines == 1:
        (sparsetools.csr_matvec if axis else sparsetools.csc_matvec)(rows, cols, *arrays)
    else:
        (sparsetools.csr_matvecs if axis else sparsetools.csc_matvecs)(rows, cols, lines, *arrays)
    return np.ascontiguousarray(out.T) if axis else out


def matmul_flops(a: Block, b: Block) -> int:
    """Floating-point operations performed by :func:`matmul`.

    Dense x dense costs ``2 m k n``; a sparse operand reduces the count to
    the stored non-zeros actually touched.
    """
    am, ak = a.shape
    _, bn = b.shape
    if isinstance(a, CSCBlock):
        return 2 * a.nnz * bn
    if isinstance(b, CSCBlock):
        return 2 * am * b.nnz
    return 2 * am * ak * bn


# ---------------------------------------------------------------------------
# Cell-wise binary operators
# ---------------------------------------------------------------------------


def cellwise(op: str, a: Block, b: Block) -> Block:
    """Apply a cell-wise binary operator (``add``/``subtract``/``multiply``/
    ``divide``) to two equally-shaped blocks."""
    if op not in CELLWISE_OPS:
        raise BlockError(f"unknown cell-wise operator {op!r}")
    _check_same_shape(a, b, f"cell-wise {op}")
    if op == "multiply":
        return _cellwise_multiply(a, b)
    if op == "divide":
        return _cellwise_divide(a, b)
    return _cellwise_additive(op, a, b)


def _cellwise_multiply(a: Block, b: Block) -> Block:
    if isinstance(a, DenseBlock) and isinstance(b, DenseBlock):
        return DenseBlock(a.data * b.data)
    if isinstance(a, CSCBlock) and isinstance(b, DenseBlock):
        return _sparse_times_dense(a, b)
    if isinstance(a, DenseBlock) and isinstance(b, CSCBlock):
        return _sparse_times_dense(b, a)
    assert isinstance(a, CSCBlock) and isinstance(b, CSCBlock)
    return _sparse_times_sparse(a, b)


def _sparse_times_dense(sparse: CSCBlock, dense: DenseBlock) -> CSCBlock:
    """Hadamard product with a sparse mask: the result keeps the sparse
    operand's pattern (entries where the dense factor is zero are dropped
    during canonicalisation)."""
    rows, cols = sparse.row_idx, sparse.column_indices()
    scaled = sparse.values * dense.data[rows, cols]
    return CSCBlock.from_coo(rows, cols, scaled, sparse.shape)


def _sparse_times_sparse(a: CSCBlock, b: CSCBlock) -> CSCBlock:
    m, _ = a.shape
    a_keys = a.column_indices().astype(np.int64) * m + a.row_idx
    b_keys = b.column_indices().astype(np.int64) * m + b.row_idx
    _, a_pos, b_pos = np.intersect1d(a_keys, b_keys, assume_unique=True, return_indices=True)
    values = a.values[a_pos] * b.values[b_pos]
    keys = a_keys[a_pos]
    return CSCBlock.from_coo(keys % m, keys // m, values, a.shape)


def _cellwise_divide(a: Block, b: Block) -> Block:
    if isinstance(a, CSCBlock) and isinstance(b, DenseBlock):
        rows, cols = a.row_idx, a.column_indices()
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = a.values / b.data[rows, cols]
        return CSCBlock.from_coo(rows, cols, quotient, a.shape)
    a_dense = a.to_dense_block() if isinstance(a, CSCBlock) else a
    b_dense = b.to_dense_block() if isinstance(b, CSCBlock) else b
    with np.errstate(divide="ignore", invalid="ignore"):
        return DenseBlock(a_dense.data / b_dense.data)


def _cellwise_additive(op: str, a: Block, b: Block) -> Block:
    sign = 1.0 if op == "add" else -1.0
    if isinstance(a, CSCBlock) and isinstance(b, CSCBlock):
        rows = np.concatenate([a.row_idx, b.row_idx])
        cols = np.concatenate([a.column_indices(), b.column_indices()])
        vals = np.concatenate([a.values, sign * b.values])
        return CSCBlock.from_coo(rows, cols, vals, a.shape)
    a_dense = a.to_dense_block() if isinstance(a, CSCBlock) else a
    b_dense = b.to_dense_block() if isinstance(b, CSCBlock) else b
    result = a_dense.data + sign * b_dense.data
    return DenseBlock(result)


def cellwise_flops(a: Block, b: Block) -> int:
    """Flop estimate for a cell-wise operator on two blocks."""
    if isinstance(a, CSCBlock) and isinstance(b, CSCBlock):
        return a.nnz + b.nnz
    rows, cols = a.shape
    return rows * cols


# ---------------------------------------------------------------------------
# Scalar operators
# ---------------------------------------------------------------------------


def scalar_op(op: str, block: Block, scalar: float) -> Block:
    """Apply ``block <op> scalar`` element-wise.

    ``multiply``/``divide`` preserve sparsity; ``add``/``subtract`` with a
    non-zero scalar turn an (implicitly zero-padded) sparse block dense.
    """
    if op not in CELLWISE_OPS:
        raise BlockError(f"unknown scalar operator {op!r}")
    if op == "divide" and scalar == 0:
        raise BlockError("division by zero scalar")
    if isinstance(block, CSCBlock):
        if op == "multiply":
            return block.with_values(block.values * scalar)
        if op == "divide":
            return block.with_values(block.values / scalar)
        if scalar == 0:
            return block.copy()
        block = block.to_dense_block()
    data = block.data
    if op == "add":
        return DenseBlock(data + scalar)
    if op == "subtract":
        return DenseBlock(data - scalar)
    if op == "multiply":
        return DenseBlock(data * scalar)
    return DenseBlock(data / scalar)


# ---------------------------------------------------------------------------
# Element-wise unary functions
# ---------------------------------------------------------------------------

#: Unary functions whose result at 0 is 0: they keep a sparse block sparse.
ZERO_PRESERVING_UNARY = frozenset({"abs", "sqrt", "sign"})

#: All supported element-wise unary functions.
UNARY_FUNCS = ("exp", "log", "sqrt", "abs", "sign", "sigmoid", "reciprocal")


def _stable_sigmoid(data: np.ndarray) -> np.ndarray:
    out = np.empty_like(data)
    positive = data >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-data[positive]))
    exp_x = np.exp(data[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


def apply_unary(func: str, data: np.ndarray) -> np.ndarray:
    """Apply an element-wise unary function to a raw ndarray (the kernel
    behind :func:`unary_op`; also used by the single-machine baseline)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if func == "exp":
            return np.exp(data)
        if func == "log":
            return np.log(data)
        if func == "sqrt":
            return np.sqrt(data)
        if func == "abs":
            return np.abs(data)
        if func == "sign":
            return np.sign(data)
        if func == "sigmoid":
            return _stable_sigmoid(data)
        if func == "reciprocal":
            return 1.0 / data
    raise BlockError(f"unknown unary function {func!r}")  # pragma: no cover


def unary_op(func: str, block: Block) -> Block:
    """Apply an element-wise unary function to a block.

    Zero-preserving functions (``abs``/``sqrt``/``sign``) act on a sparse
    block's stored values only; the others (``exp``, ``sigmoid``, ...) map
    the implicit zeros to non-zeros and therefore densify.
    """
    if func not in UNARY_FUNCS:
        raise BlockError(f"unknown unary function {func!r}")
    if isinstance(block, CSCBlock):
        if func in ZERO_PRESERVING_UNARY:
            return block.with_values(apply_unary(func, block.values))
        block = block.to_dense_block()
    return DenseBlock(apply_unary(func, block.data))


def unary_flops(block: Block, func: str) -> int:
    """Flop estimate for :func:`unary_op` on one block."""
    if isinstance(block, CSCBlock) and func in ZERO_PRESERVING_UNARY:
        return block.nnz
    rows, cols = block.shape
    return rows * cols


# ---------------------------------------------------------------------------
# Structural and aggregate kernels
# ---------------------------------------------------------------------------


def transpose(block: Block) -> Block:
    """The transposed block, preserving storage format."""
    return block.transpose()


def block_sum(block: Block) -> float:
    """Sum of all entries of the block."""
    if isinstance(block, CSCBlock):
        return float(block.values.sum())
    return float(block.data.sum())


def block_row_sums(block: Block) -> DenseBlock:
    """Column vector of per-row sums (``m x 1``)."""
    rows, __ = block.shape
    if isinstance(block, CSCBlock):
        # Every row sums its entries one after the other in storage order.
        sums = np.bincount(block.row_idx, weights=block.values, minlength=rows)
        return DenseBlock(sums.reshape(rows, 1))
    return DenseBlock(block.data.sum(axis=1, keepdims=True))


def block_col_sums(block: Block) -> DenseBlock:
    """Row vector of per-column sums (``1 x n``)."""
    __, cols = block.shape
    if isinstance(block, CSCBlock):
        sums = np.add.reduceat(
            np.concatenate([block.values, [0.0]]),
            np.minimum(block.colptr[:-1], len(block.values)),
        )
        # reduceat misbehaves on empty columns: recompute them as zero.
        empty = np.diff(block.colptr) == 0
        sums = np.where(empty, 0.0, sums[:cols])
        return DenseBlock(sums.reshape(1, cols))
    return DenseBlock(block.data.sum(axis=0, keepdims=True))


def block_sq_sum(block: Block) -> float:
    """Sum of squared entries (used for Frobenius norms)."""
    if isinstance(block, CSCBlock):
        return float(np.square(block.values).sum())
    return float(np.square(block.data).sum())


def accumulate(target: DenseBlock, addition: Block) -> None:
    """In-place aggregation: ``target += addition``.

    This is the only mutating kernel; it backs the In-Place local execution
    strategy (paper Section 5.3) where every partial product of a result
    block is folded directly into that block, avoiding intermediate buffers.
    """
    _check_same_shape(target, addition, "accumulate")
    if isinstance(addition, CSCBlock):
        np.add.at(target.data, (addition.row_idx, addition.column_indices()), addition.values)
    else:
        target.data += addition.data
