"""Distributed matrices: a block grid spread over the cluster by a scheme.

A :class:`DistributedMatrix` wraps an RDD of ``((block_row, block_col),
Block)`` records together with the matrix dimensions, the block size, and
the :class:`~repro.matrix.schemes.Scheme` describing where blocks live:

* Row/Column scheme -- each block sits in exactly one partition, determined
  by the scheme's partitioner; partition ``p`` lives on worker ``p % K``.
* Broadcast scheme -- every one of the ``K`` partitions carries the full
  block set (a physical replica per worker).

Blocks that are entirely zero may be absent from the RDD (sparse layers
drop them); assembly treats missing blocks as zero.
"""

from __future__ import annotations

import numpy as np

from repro.blocks.conversion import assemble, grid_shape, split
from repro.blocks.coordinate import CoordinateMatrix, as_matrix
from repro.blocks.ops import Block
from repro.errors import ShapeError
from repro.localexec.engine import Grid
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from repro.rdd.rdd import RDD
from repro.rdd.sizeof import model_sizeof

BlockKey = tuple[int, int]


def _all_zero(block: Block) -> bool:
    """Whether a freshly cut block holds no non-zero.  A CSC block knows; a
    dense one is almost never empty (the cut just elected it dense, or the
    caller asked for dense storage), so its first row is probed before the
    whole block is scanned."""
    if block.is_sparse:
        return block.nnz == 0
    return not (block.data[:1].any() or block.data.any())


class DistributedMatrix:
    """A matrix partitioned over the simulated cluster."""

    def __init__(
        self,
        context: ClusterContext,
        rdd: RDD,
        rows: int,
        cols: int,
        block_size: int,
        scheme: Scheme,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be >= 1, got {rows}x{cols}")
        if block_size < 1:
            raise ShapeError(f"block_size must be >= 1, got {block_size}")
        self.context = context
        self.rdd = rdd
        self.rows = rows
        self.cols = cols
        self.block_size = block_size
        self.scheme = scheme

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        context: ClusterContext,
        array: np.ndarray | CoordinateMatrix,
        block_size: int,
        scheme: Scheme = Scheme.ROW,
        storage: str = "auto",
    ) -> "DistributedMatrix":
        """Load a driver-side matrix -- a dense array or a
        :class:`~repro.blocks.CoordinateMatrix`, which is cut without being
        densified -- into the cluster.  Either form of one matrix yields the
        same partitions: same keys, same block classes, same bytes.

        Loading into a Row or Column scheme is free (the distributed
        filesystem read is not cluster communication); loading straight into
        Broadcast charges the replication like a broadcast operator would.
        """
        arr = as_matrix(array)
        grid = split(arr, block_size, storage=storage)
        items = [(key, block) for key, block in sorted(grid.items()) if not _all_zero(block)]
        rows, cols = arr.shape
        if scheme.is_one_dimensional:
            rdd = context.parallelize(items, scheme.partitioner(context.num_workers))
            return cls(context, rdd, rows, cols, block_size, scheme)
        nbytes = sum(model_sizeof(block) for __, block in items)
        context.transfer("broadcast", (context.num_workers - 1) * nbytes)
        partitions = [list(items) for __ in range(context.num_workers)]
        rdd = RDD(context, partitions, partitioner=None)
        return cls(context, rdd, rows, cols, block_size, Scheme.BROADCAST)

    @classmethod
    def random(
        cls,
        context: ClusterContext,
        rows: int,
        cols: int,
        block_size: int,
        scheme: Scheme = Scheme.ROW,
        seed: int = 0,
    ) -> "DistributedMatrix":
        """A uniform(0, 1) dense random matrix, generated in place (each
        worker draws its own blocks from a key-derived stream), so no
        communication is charged for Row/Column schemes."""
        rng = np.random.default_rng(seed)
        array = rng.random((rows, cols))
        return cls.from_numpy(context, array, block_size, scheme, storage="dense")

    # -- grid geometry -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def block_grid_shape(self) -> tuple[int, int]:
        return grid_shape(self.rows, self.cols, self.block_size)

    # -- worker-local views ------------------------------------------------

    def worker_grid(self, worker: int) -> Grid:
        """The blocks physically present on one worker.

        For a Broadcast matrix this is the full block set; for Row/Column it
        is the worker's shard.  Under Broadcast, each worker's replica lives
        in its own partition, so duplicates never mix.
        """
        return dict(self.rdd.worker_partitions(worker))

    def driver_grid(self) -> Grid:
        """One logical copy of all blocks (replicas deduplicated)."""
        if self.scheme is Scheme.BROADCAST:
            return self.worker_grid(0)
        return dict(self.rdd.collect())

    # -- statistics ----------------------------------------------------------

    def nnz(self) -> int:
        """Stored non-zeros of one logical copy."""
        return sum(block.nnz for block in self.driver_grid().values())

    def sparsity(self) -> float:
        return self.nnz() / (self.rows * self.cols)

    def model_nbytes(self) -> int:
        """Bytes of one logical copy under the paper's memory model."""
        return sum(model_sizeof(block) for block in self.driver_grid().values())

    def is_sparse(self) -> bool:
        """True when any stored block is sparse (or blocks were dropped)."""
        grid = self.driver_grid()
        block_rows, block_cols = self.block_grid_shape
        if len(grid) < block_rows * block_cols:
            return True
        return any(block.is_sparse for block in grid.values())

    # -- materialisation ----------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Gather and assemble the full matrix at the driver."""
        return assemble(self.driver_grid(), self.shape, self.block_size)

    def value(self) -> float:
        """The single entry of a 1x1 matrix (paper programs use ``.value``)."""
        if self.shape != (1, 1):
            raise ShapeError(f".value requires a 1x1 matrix, got {self.shape}")
        return float(self.to_numpy()[0, 0])

    def with_scheme_rdd(self, rdd: RDD, scheme: Scheme) -> "DistributedMatrix":
        """A sibling matrix: same geometry, new payload/scheme."""
        return DistributedMatrix(
            self.context, rdd, self.rows, self.cols, self.block_size, scheme
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedMatrix({self.rows}x{self.cols}, block={self.block_size}, "
            f"scheme={self.scheme})"
        )
