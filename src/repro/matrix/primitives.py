"""Physical operators over distributed matrices.

These are the *execution-level* operations DMac's plans (and the baselines)
are lowered to.  They come in two families, mirroring the paper's dependency
categories (Section 3.2):

Communicating -- routed through the metered substrate:
    * :func:`repartition`       -- the ``partition`` extended operator,
    * :func:`broadcast_matrix`  -- the ``broadcast`` extended operator,
    * :func:`cpmm`              -- cross-product multiplication, whose
      aggregation shuffles partial result blocks.

Communication-free -- purely worker-local:
    * :func:`extract`           -- keep the locally-owned slice of a replica,
    * :func:`local_transpose`   -- Row <-> Column by transposing local blocks,
    * :func:`rmm1` / :func:`rmm2` -- replication-based multiplication
      (the replication itself is a separate ``broadcast`` step),
    * :func:`bmm`               -- the product of two replicas, itself a
      replica,
    * :func:`cellwise_op`, :func:`scalar_multiply` etc.

Every primitive runs its block work through the hosting worker's
:class:`~repro.localexec.engine.LocalEngine`, so flops and memory peaks are
attributed to the right node for the simulated clock.  Input and output
grids are charged to the worker for the duration of the operation (the
high-water mark is what the memory experiments read); the charge is dropped
when the operation completes.
"""

from __future__ import annotations

from typing import Callable

from repro.blocks import ops as block_ops
from repro.blocks.dense import DenseBlock
from repro.blocks.ops import Block
from repro.errors import SchemeError, ShapeError
from repro.localexec.fused import FusedChain
from repro.matrix.distributed import BlockKey, DistributedMatrix
from repro.matrix.schemes import Scheme
from repro.rdd.rdd import RDD
from repro.rdd.shuffle import shuffle
from repro.rdd.sizeof import model_sizeof


# ---------------------------------------------------------------------------
# Scheme-changing primitives
# ---------------------------------------------------------------------------


def repartition(matrix: DistributedMatrix, target: Scheme) -> DistributedMatrix:
    """Re-shuffle a Row/Column matrix into another one-dimensional scheme.

    This realises the ``partition`` extended operator; its traffic (roughly
    ``|A|``) is metered by the shuffle service.  Repartitioning a Broadcast
    matrix is a planner bug -- that case is a free :func:`extract`.
    """
    if not target.is_one_dimensional:
        raise SchemeError(f"repartition target must be Row or Column, got {target}")
    if matrix.scheme is Scheme.BROADCAST:
        raise SchemeError("repartitioning a Broadcast matrix: use extract() instead")
    if matrix.scheme is target:
        return matrix
    partitioner = target.partitioner(matrix.context.num_workers)
    return matrix.with_scheme_rdd(matrix.rdd.partition_by(partitioner), target)


def broadcast_matrix(matrix: DistributedMatrix) -> DistributedMatrix:
    """Replicate a Row/Column matrix to every worker (``broadcast`` operator).

    Charges ``(K - 1) * |A|`` of broadcast traffic, matching the paper's
    ``N x |A|``-order cost for Broadcast dependencies.
    """
    if matrix.scheme is Scheme.BROADCAST:
        return matrix
    items = sorted(matrix.rdd.collect())
    nbytes = sum(model_sizeof(block) for __, block in items)
    context = matrix.context
    context.transfer("broadcast", (context.num_workers - 1) * nbytes)
    partitions = [list(items) for __ in range(context.num_workers)]
    rdd = RDD(context, partitions, partitioner=None)
    return matrix.with_scheme_rdd(rdd, Scheme.BROADCAST)


def extract(matrix: DistributedMatrix, target: Scheme) -> DistributedMatrix:
    """From a Broadcast replica, keep only the locally-owned blocks.

    Realises the ``extract`` extended operator (Extract dependency): each
    worker filters its full copy down to the blocks the target scheme
    assigns to it.  Purely local -- no bytes move.
    """
    if matrix.scheme is not Scheme.BROADCAST:
        raise SchemeError(f"extract requires a Broadcast matrix, got {matrix.scheme}")
    if not target.is_one_dimensional:
        raise SchemeError(f"extract target must be Row or Column, got {target}")
    context = matrix.context
    partitioner = target.partitioner(context.num_workers)
    partitions = [
        [
            (key, block)
            for key, block in matrix.rdd.partition(p)
            if partitioner.partition_for(key) == p
        ]
        for p in range(context.num_workers)
    ]
    rdd = RDD(context, partitions, partitioner)
    return matrix.with_scheme_rdd(rdd, target)


def local_transpose(matrix: DistributedMatrix) -> DistributedMatrix:
    """Transpose without communication (``transpose`` extended operator).

    A Row-scheme matrix becomes the Column-scheme transpose (and vice
    versa): block ``(i, j)`` on its worker becomes block ``(j, i)`` of the
    transpose, which the complementary scheme assigns to the *same* worker.
    A Broadcast matrix stays Broadcast.
    """
    context = matrix.context
    new_scheme = matrix.scheme.opposite
    partitions = [
        [((j, i), block.transpose()) for (i, j), block in matrix.rdd.partition(p)]
        for p in range(matrix.rdd.num_partitions)
    ]
    partitioner = (
        new_scheme.partitioner(context.num_workers)
        if new_scheme.is_one_dimensional
        else None
    )
    rdd = RDD(context, partitions, partitioner)
    return DistributedMatrix(
        context, rdd, matrix.cols, matrix.rows, matrix.block_size, new_scheme
    )


# ---------------------------------------------------------------------------
# Multiplication strategies (paper Figure 2)
# ---------------------------------------------------------------------------


def _check_matmul(a: DistributedMatrix, b: DistributedMatrix) -> None:
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if a.block_size != b.block_size:
        raise ShapeError(
            f"matmul operands must share a block size: {a.block_size} vs {b.block_size}"
        )


def _require_scheme(matrix: DistributedMatrix, scheme: Scheme, strategy: str) -> None:
    if matrix.scheme is not scheme:
        raise SchemeError(
            f"{strategy} requires a {scheme}-scheme operand, got {matrix.scheme}"
        )


def _per_worker_compute(
    a: DistributedMatrix,
    compute: Callable[[int], list[tuple[BlockKey, Block]]],
) -> list[list[tuple[BlockKey, Block]]]:
    """Run a worker-indexed computation on every worker, in worker order."""
    return [compute(worker) for worker in range(a.context.num_workers)]


def _local_products(
    a: DistributedMatrix, b: DistributedMatrix
) -> list[list[tuple[BlockKey, Block]]]:
    """Every worker's block product of the blocks of ``a`` and ``b`` it
    holds, with both operand grids and the result charged while it runs."""
    context = a.context

    def compute(worker: int) -> list[tuple[BlockKey, Block]]:
        engine = context.engine_for_partition(worker)
        ga, gb = a.worker_grid(worker), b.worker_grid(worker)
        engine.register_grid(ga)
        engine.register_grid(gb)
        gc = engine.matmul_grids(ga, gb)
        engine.release_grid(ga)
        engine.release_grid(gb)
        engine.release_grid(gc)
        return sorted(gc.items())

    return _per_worker_compute(a, compute)


def rmm1(a: DistributedMatrix, b: DistributedMatrix) -> DistributedMatrix:
    """Replication-based multiplication, variant 1: ``A(b) @ B(c) -> AB(c)``.

    Each worker multiplies the full replica of ``A`` against its column
    strip of ``B``; the result is born Column-partitioned with zero traffic.
    """
    _check_matmul(a, b)
    _require_scheme(a, Scheme.BROADCAST, "RMM1")
    _require_scheme(b, Scheme.COL, "RMM1")
    context = a.context
    partitioner = Scheme.COL.partitioner(context.num_workers)
    rdd = RDD(context, _local_products(a, b), partitioner)
    return DistributedMatrix(context, rdd, a.rows, b.cols, a.block_size, Scheme.COL)


def rmm2(a: DistributedMatrix, b: DistributedMatrix) -> DistributedMatrix:
    """Replication-based multiplication, variant 2: ``A(r) @ B(b) -> AB(r)``."""
    _check_matmul(a, b)
    _require_scheme(a, Scheme.ROW, "RMM2")
    _require_scheme(b, Scheme.BROADCAST, "RMM2")
    context = a.context
    partitioner = Scheme.ROW.partitioner(context.num_workers)
    rdd = RDD(context, _local_products(a, b), partitioner)
    return DistributedMatrix(context, rdd, a.rows, b.cols, a.block_size, Scheme.ROW)


def bmm(a: DistributedMatrix, b: DistributedMatrix) -> DistributedMatrix:
    """Replicated multiplication: ``A(b) @ B(b) -> AB(b)``.

    Every worker multiplies its own replicas, so the product is born a
    replica with zero traffic.  Each worker runs the block kernel RMM1
    runs, over the whole of ``B`` instead of its column strip: a result
    block is folded from the same pairs in the same order, so the product
    is bit-identical to RMM1's.  Every worker books the full product's
    flops; they run in parallel, so the clock sees one replica's time.
    """
    _check_matmul(a, b)
    _require_scheme(a, Scheme.BROADCAST, "BMM")
    _require_scheme(b, Scheme.BROADCAST, "BMM")
    context = a.context
    rdd = RDD(context, _local_products(a, b), partitioner=None)
    return DistributedMatrix(
        context, rdd, a.rows, b.cols, a.block_size, Scheme.BROADCAST
    )


def cpmm(
    a: DistributedMatrix,
    b: DistributedMatrix,
    output_scheme: Scheme = Scheme.ROW,
) -> DistributedMatrix:
    """Cross-product multiplication: ``A(c) @ B(r) -> AB(r | c)``.

    Worker ``w`` holds the inner-index slices ``A[:, k]`` and ``B[k, :]``
    for its ``k``'s and computes a full-size partial product locally; the
    partials are then shuffled and summed into the requested output scheme.
    The shuffle is what gives CPMM its ``N x |AB|``-order output cost
    (paper Section 4.1).  Per Section 5.4 the aggregation runs with Spark's
    map-side combine *off* -- the In-Place engine already emits one combined
    partial per worker.
    """
    _check_matmul(a, b)
    _require_scheme(a, Scheme.COL, "CPMM")
    _require_scheme(b, Scheme.ROW, "CPMM")
    if not output_scheme.is_one_dimensional:
        raise SchemeError(f"CPMM output scheme must be Row or Column, got {output_scheme}")
    context = a.context
    partial_partitions = _local_products(a, b)
    partitioner = output_scheme.partitioner(context.num_workers)
    shuffled = shuffle(context, partial_partitions, partitioner)

    partitions: list[list[tuple[BlockKey, Block]]] = []
    for index, part in enumerate(shuffled):
        engine = context.engine_for_partition(index)
        merged: dict[BlockKey, DenseBlock] = {}
        for key, block in part:
            if key in merged:
                block_ops.accumulate(merged[key], block)
                engine.stats.record(block.shape[0] * block.shape[1], sparse=False)
            else:
                merged[key] = block if isinstance(block, DenseBlock) else block.to_dense_block()
        partitions.append(sorted(merged.items()))
    rdd = RDD(context, partitions, partitioner)
    return DistributedMatrix(
        context, rdd, a.rows, b.cols, a.block_size, output_scheme
    )


# ---------------------------------------------------------------------------
# Cell-wise and scalar operators
# ---------------------------------------------------------------------------


def cellwise_op(
    op: str,
    a: DistributedMatrix,
    b: DistributedMatrix,
) -> DistributedMatrix:
    """Aligned cell-wise binary operator: both operands must share shape
    *and* scheme; the result inherits that scheme with zero traffic."""
    if a.shape != b.shape:
        raise ShapeError(f"cell-wise {op} requires equal shapes, got {a.shape} / {b.shape}")
    if a.block_size != b.block_size:
        raise ShapeError("cell-wise operands must share a block size")
    if a.scheme is not b.scheme:
        raise SchemeError(
            f"cell-wise {op} requires aligned schemes, got {a.scheme} / {b.scheme}"
        )
    context = a.context

    def compute(worker: int) -> list[tuple[BlockKey, Block]]:
        engine = context.engine_for_partition(worker)
        ga, gb = a.worker_grid(worker), b.worker_grid(worker)
        engine.register_grid(ga)
        engine.register_grid(gb)
        gc = engine.cellwise_grids(op, ga, gb)
        engine.release_grid(ga)
        engine.release_grid(gb)
        engine.release_grid(gc)
        return sorted(gc.items())

    partitions = _per_worker_compute(a, compute)
    partitioner = (
        a.scheme.partitioner(context.num_workers) if a.scheme.is_one_dimensional else None
    )
    rdd = RDD(context, partitions, partitioner)
    return a.with_scheme_rdd(rdd, a.scheme)


def fused_cellwise_op(
    chain: FusedChain,
    operands: tuple[DistributedMatrix, ...],
) -> DistributedMatrix:
    """Fused cell-wise chain over aligned operands: one composed kernel per
    block, no intermediate distributed materialisation.

    All operands must share shape, block size and scheme (each fused inner
    step was an aligned cell-wise operator, so the chain inherits the same
    alignment requirement); the result inherits that scheme with zero
    traffic, exactly like :func:`cellwise_op`.
    """
    first = operands[0]
    for other in operands[1:]:
        if other.shape != first.shape:
            raise ShapeError(
                f"fused cell-wise chain requires equal shapes, "
                f"got {first.shape} / {other.shape}"
            )
        if other.block_size != first.block_size:
            raise ShapeError("cell-wise operands must share a block size")
        if other.scheme is not first.scheme:
            raise SchemeError(
                f"fused cell-wise chain requires aligned schemes, "
                f"got {first.scheme} / {other.scheme}"
            )
    context = first.context

    def compute(worker: int) -> list[tuple[BlockKey, Block]]:
        engine = context.engine_for_partition(worker)
        grids = tuple(operand.worker_grid(worker) for operand in operands)
        for grid in grids:
            engine.register_grid(grid)
        gc = engine.fused_cellwise_grids(chain, grids)
        for grid in grids:
            engine.release_grid(grid)
        engine.release_grid(gc)
        return sorted(gc.items())

    partitions = _per_worker_compute(first, compute)
    partitioner = (
        first.scheme.partitioner(context.num_workers)
        if first.scheme.is_one_dimensional
        else None
    )
    rdd = RDD(context, partitions, partitioner)
    return first.with_scheme_rdd(rdd, first.scheme)


def scalar_op_matrix(
    op: str,
    matrix: DistributedMatrix,
    scalar: float,
) -> DistributedMatrix:
    """Element-wise ``matrix <op> scalar``; scheme preserved, no traffic.

    Adding or subtracting a non-zero constant also shifts the *implicit*
    zeros, so dropped all-zero blocks are materialised first (like
    :func:`unary_op_matrix` for densifying functions).
    """
    context = matrix.context
    densifies = op in ("add", "subtract") and scalar != 0.0

    def compute(worker: int) -> list[tuple[BlockKey, Block]]:
        engine = context.engine_for_partition(worker)
        grid = dict(matrix.worker_grid(worker))
        if densifies:
            for key in _owned_block_keys(matrix, worker):
                if key not in grid:
                    grid[key] = _zero_block(matrix, key)
        engine.register_grid(grid)
        result = engine.scalar_grids(op, grid, scalar)
        engine.release_grid(grid)
        engine.release_grid(result)
        return sorted(result.items())

    partitions = _per_worker_compute(matrix, compute)
    partitioner = (
        matrix.scheme.partitioner(context.num_workers)
        if matrix.scheme.is_one_dimensional
        else None
    )
    rdd = RDD(context, partitions, partitioner)
    return matrix.with_scheme_rdd(rdd, matrix.scheme)


def _owned_block_keys(matrix: DistributedMatrix, worker: int) -> list[BlockKey]:
    """Every block coordinate the matrix's scheme assigns to ``worker``
    (including blocks absent from the RDD because they are all-zero)."""
    block_rows, block_cols = matrix.block_grid_shape
    if matrix.scheme is Scheme.BROADCAST:
        return [(i, j) for i in range(block_rows) for j in range(block_cols)]
    partitioner = matrix.scheme.partitioner(matrix.context.num_workers)
    return [
        (i, j)
        for i in range(block_rows)
        for j in range(block_cols)
        if matrix.context.worker_for_partition(partitioner.partition_for((i, j)))
        == worker
    ]


def _zero_block(matrix: DistributedMatrix, key: BlockKey) -> DenseBlock:
    from repro.blocks.conversion import block_extent

    r0, r1 = block_extent(key[0], matrix.rows, matrix.block_size)
    c0, c1 = block_extent(key[1], matrix.cols, matrix.block_size)
    return DenseBlock.zeros(r1 - r0, c1 - c0)


def unary_op_matrix(func: str, matrix: DistributedMatrix) -> DistributedMatrix:
    """Element-wise unary function; scheme preserved, no traffic.

    Densifying functions (``f(0) != 0``: exp, sigmoid, ...) must also map
    the *implicit* zeros: blocks dropped from the RDD because they were
    all-zero are materialised as explicit zero blocks before applying
    ``func``, so e.g. ``sigmoid`` of a dropped block correctly yields 0.5s.
    """
    context = matrix.context
    densifies = func not in block_ops.ZERO_PRESERVING_UNARY

    def compute(worker: int) -> list[tuple[BlockKey, Block]]:
        engine = context.engine_for_partition(worker)
        grid = dict(matrix.worker_grid(worker))
        if densifies:
            for key in _owned_block_keys(matrix, worker):
                if key not in grid:
                    grid[key] = _zero_block(matrix, key)
        out: list[tuple[BlockKey, Block]] = []
        for key, block in sorted(grid.items()):
            engine.stats.record(block_ops.unary_flops(block, func), block.is_sparse)
            out.append((key, block_ops.unary_op(func, block)))
        return out

    partitions = _per_worker_compute(matrix, compute)
    partitioner = (
        matrix.scheme.partitioner(context.num_workers)
        if matrix.scheme.is_one_dimensional
        else None
    )
    rdd = RDD(context, partitions, partitioner)
    return matrix.with_scheme_rdd(rdd, matrix.scheme)


# ---------------------------------------------------------------------------
# Row / column aggregations (matrix -> vector)
# ---------------------------------------------------------------------------


def row_sums(
    matrix: DistributedMatrix, output_scheme: Scheme = Scheme.ROW
) -> DistributedMatrix:
    """Per-row sums as an ``M x 1`` matrix.

    Free on a Row-scheme input (each worker owns whole block-rows) and on a
    Broadcast replica; a Column-scheme input yields per-worker partial sums
    that must be shuffled and combined -- the aggregation is metered, like
    CPMM's.
    """
    return _axis_sums(matrix, axis=0, output_scheme=output_scheme)


def col_sums(
    matrix: DistributedMatrix, output_scheme: Scheme = Scheme.COL
) -> DistributedMatrix:
    """Per-column sums as a ``1 x N`` matrix (mirror of :func:`row_sums`)."""
    return _axis_sums(matrix, axis=1, output_scheme=output_scheme)


def _axis_sums(
    matrix: DistributedMatrix, axis: int, output_scheme: Scheme
) -> DistributedMatrix:
    context = matrix.context
    kernel = block_ops.block_row_sums if axis == 0 else block_ops.block_col_sums
    out_rows = matrix.rows if axis == 0 else 1
    out_cols = 1 if axis == 0 else matrix.cols
    aligned_scheme = Scheme.ROW if axis == 0 else Scheme.COL

    def local_partials(worker: int) -> dict[BlockKey, DenseBlock]:
        engine = context.engine_for_partition(worker)
        partials: dict[BlockKey, DenseBlock] = {}
        for (bi, bj), block in matrix.worker_grid(worker).items():
            key = (bi, 0) if axis == 0 else (0, bj)
            summed = kernel(block)
            engine.stats.record(block.nnz if block.is_sparse else
                                block.shape[0] * block.shape[1], block.is_sparse)
            if key in partials:
                block_ops.accumulate(partials[key], summed)
            else:
                partials[key] = summed
        return partials

    if matrix.scheme is Scheme.BROADCAST:
        # Every worker holds the full matrix: replicate the full result.
        partitions = [
            sorted(local_partials(worker).items())
            for worker in range(context.num_workers)
        ]
        rdd = RDD(context, partitions, partitioner=None)
        return DistributedMatrix(
            context, rdd, out_rows, out_cols, matrix.block_size, Scheme.BROADCAST
        )

    if matrix.scheme is aligned_scheme:
        # The reduced axis is entirely worker-local: no communication.
        partitions = [
            sorted(local_partials(worker).items())
            for worker in range(context.num_workers)
        ]
        partitioner = aligned_scheme.partitioner(context.num_workers)
        rdd = RDD(context, partitions, partitioner)
        return DistributedMatrix(
            context, rdd, out_rows, out_cols, matrix.block_size, aligned_scheme
        )

    # Opposed scheme: per-worker partials are shuffled and combined.
    if not output_scheme.is_one_dimensional:
        raise SchemeError(f"aggregated output scheme must be Row or Column, got {output_scheme}")
    partial_partitions = [
        sorted(local_partials(worker).items())
        for worker in range(context.num_workers)
    ]
    partitioner = output_scheme.partitioner(context.num_workers)
    shuffled = shuffle(matrix.context, partial_partitions, partitioner)
    partitions: list[list[tuple[BlockKey, Block]]] = []
    for index, part in enumerate(shuffled):
        engine = context.engine_for_partition(index)
        merged: dict[BlockKey, DenseBlock] = {}
        for key, block in part:
            if key in merged:
                block_ops.accumulate(merged[key], block)
                engine.stats.record(block.shape[0] * block.shape[1], sparse=False)
            else:
                merged[key] = block
        partitions.append(sorted(merged.items()))
    rdd = RDD(context, partitions, partitioner)
    return DistributedMatrix(
        context, rdd, out_rows, out_cols, matrix.block_size, output_scheme
    )


# ---------------------------------------------------------------------------
# Aggregations to driver scalars
# ---------------------------------------------------------------------------


def matrix_sum(matrix: DistributedMatrix) -> float:
    """Sum of all entries; the per-worker partials that travel to the driver
    are a few bytes each and, like the paper, not charged as cluster
    communication."""
    return sum(block_ops.block_sum(b) for b in matrix.driver_grid().values())


def matrix_sq_sum(matrix: DistributedMatrix) -> float:
    """Sum of squared entries (Frobenius norm squared)."""
    return sum(block_ops.block_sq_sum(b) for b in matrix.driver_grid().values())
