"""Synthetic sparse matrix generator (paper Sections 6.1 and 6.5).

The paper's scalability experiments use "a random data generator which can
produce a sparse matrix V with d rows and w columns in s sparsity", fixing
the number of columns and scaling the rows so the non-zero count grows
linearly ("This matrix generating process is the same as in [SystemML]").
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError


def sparse_random(
    rows: int,
    cols: int,
    sparsity: float,
    seed: int = 0,
    value_offset: float = 0.1,
    ensure_coverage: bool = False,
) -> np.ndarray:
    """A dense numpy array holding a random sparse matrix.

    Non-zero positions are uniform; values are uniform in
    ``[value_offset, 1 + value_offset)`` so they are strictly positive
    (GNMF's multiplicative updates require non-negative data and the
    positive offset keeps denominators away from zero).  With
    ``ensure_coverage`` every row and column receives at least one
    non-zero, which GNMF needs to avoid 0/0 factor rows.
    """
    if rows < 1 or cols < 1:
        raise ReproError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
    if not 0.0 <= sparsity <= 1.0:
        raise ReproError(f"sparsity must lie in [0, 1], got {sparsity}")
    rng = np.random.default_rng(seed)
    out = np.zeros((rows, cols), dtype=np.float64)
    nnz = int(round(rows * cols * sparsity))
    if nnz:
        flat = rng.choice(rows * cols, size=nnz, replace=False)
        out.flat[flat] = rng.random(nnz) + value_offset
    if ensure_coverage and sparsity > 0:
        for row in np.flatnonzero(out.sum(axis=1) == 0):
            out[row, rng.integers(cols)] = rng.random() + value_offset
        for col in np.flatnonzero(out.sum(axis=0) == 0):
            out[rng.integers(rows), col] = rng.random() + value_offset
    return out


def dense_random(rows: int, cols: int, seed: int = 0) -> np.ndarray:
    """A dense uniform(0, 1) matrix (the paper's MM-Dense input V2)."""
    return sparse_random(rows, cols, 1.0, seed)
