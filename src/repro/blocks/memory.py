"""Memory model and block-size selection (paper Section 5.3).

Two results from the paper are implemented here:

* **Equation 2** -- the total memory consumed by an ``M x N`` matrix with
  sparsity ``S`` split into ``m x m`` blocks::

      Mem(A) = 4 N (M / m) + 8 M N S     (sparse)
      Mem(A) = 4 M N                     (dense)

  The first term is the duplicated Column-Start-Index arrays (one 4-byte
  entry per column *per block row*), which is why small blocks waste memory
  on sparse matrices.

* **Equation 3** -- the upper bound on the block row size that still gives
  every local thread at least one task, derived from the RMM task count
  ``M N / (K m^2)`` spread over ``K`` workers with ``L`` threads each::

      m <= sqrt(M N / (L K))

  DMac auto-tunes the block size to sit just under this bound, trading the
  sparse-memory overhead of small blocks against local parallelism.
"""

from __future__ import annotations

import math

from repro.errors import BlockError


def dense_block_model_bytes(rows: int, cols: int) -> int:
    """Paper model for one dense block: ``4mn`` bytes."""
    return 4 * rows * cols


def matrix_model_bytes(
    rows: int,
    cols: int,
    sparsity: float,
    block_size: int,
    sparse: bool = True,
) -> int:
    """Equation 2: memory of an ``M x N`` matrix partitioned into
    ``block_size``-row blocks.

    For sparse storage this charges one Column-Start-Index array per block
    row (``4 N * ceil(M / m)``) plus 8 bytes per stored non-zero; dense
    storage is insensitive to blocking.
    """
    if block_size < 1:
        raise BlockError(f"block_size must be >= 1, got {block_size}")
    if not sparse:
        return 4 * rows * cols
    block_rows = math.ceil(rows / block_size)
    return int(4 * cols * block_rows + 8 * rows * cols * sparsity)


def max_block_size(rows: int, cols: int, workers: int, local_parallelism: int) -> int:
    """Equation 3: the largest block row size ``m`` such that an RMM-style
    multiplication still yields at least one task per local thread,
    ``m <= sqrt(M N / (L K))``."""
    if workers < 1 or local_parallelism < 1:
        raise BlockError("workers and local_parallelism must be >= 1")
    if rows < 1 or cols < 1:
        raise BlockError("matrix dimensions must be >= 1")
    bound = math.sqrt(rows * cols / (local_parallelism * workers))
    return max(1, int(bound))


def choose_block_size(
    rows: int,
    cols: int,
    workers: int,
    local_parallelism: int,
    fraction_of_bound: float = 0.9,
) -> int:
    """DMac's automatic block-size choice: a value near (just under) the
    Equation-3 upper bound, so blocks are as large as possible -- minimising
    the duplicated index arrays of Equation 2 -- while every thread still
    gets a task."""
    if not 0 < fraction_of_bound <= 1:
        raise BlockError(f"fraction_of_bound must lie in (0, 1], got {fraction_of_bound}")
    bound = max_block_size(rows, cols, workers, local_parallelism)
    chosen = max(1, int(bound * fraction_of_bound))
    return min(chosen, max(rows, cols))


def program_block_size(dims: dict, workers: int, local_parallelism: int) -> int:
    """:func:`choose_block_size` for a program's largest declared matrix."""
    rows, cols = max(dims.values(), key=lambda shape: shape[0] * shape[1])
    return choose_block_size(rows, cols, workers, local_parallelism)
