"""SUMMA matrix multiplication over the 2-D block-cyclic layout.

The Scalable Universal Matrix Multiplication Algorithm proceeds in one
round per inner block index ``k``:

1. the owners of the ``A[:, k]`` panel broadcast their blocks along their
   *process row* (``pc - 1`` copies each),
2. the owners of the ``B[k, :]`` panel broadcast along their *process
   column* (``pr - 1`` copies each),
3. every process multiplies the panels it received and accumulates into the
   result blocks it owns.

Traffic is therefore ``|A| (pc - 1) + |B| (pr - 1)`` in total -- for a
near-square grid of ``K`` workers, about ``(sqrt(K) - 1)(|A| + |B|)``,
compared with ``K x |smaller operand|`` for replication-based 1-D
multiplication and ``K x |C|`` for CPMM.  The flip side the paper points
out: one *stage per k-panel* instead of RMM's single local stage.

Every panel transfer is metered through the cluster ledger; compute runs on
each owner's local engine so flops land on the right worker.
"""

from __future__ import annotations

from repro.blocks import ops as block_ops
from repro.blocks.dense import DenseBlock
from repro.errors import ShapeError
from repro.grid2d.layout import BlockCyclicPartitioner, Grid2DMatrix
from repro.rdd.rdd import RDD
from repro.rdd.sizeof import model_sizeof


def summa_matmul(a: Grid2DMatrix, b: Grid2DMatrix) -> Grid2DMatrix:
    """``C = A @ B`` with SUMMA on matching block-cyclic layouts."""
    if a.cols != b.rows:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    if a.block_size != b.block_size:
        raise ShapeError(
            f"operands must share a block size: {a.block_size} vs {b.block_size}"
        )
    if a.layout != b.layout:
        raise ShapeError("SUMMA requires both operands on the same process grid")

    context = a.context
    layout = a.layout
    a_blocks = dict(a.rdd.collect())
    b_blocks = dict(b.rdd.collect())

    # Panel traffic: each owned A block is replicated to the other pc - 1
    # processes of its grid row; each B block to the other pr - 1 of its
    # grid column.  (A block already colocated with every consumer would
    # need pc = 1; the general formula covers it.)
    panel_bytes = sum(model_sizeof(blk) for blk in a_blocks.values()) * (layout.pc - 1)
    panel_bytes += sum(model_sizeof(blk) for blk in b_blocks.values()) * (layout.pr - 1)
    context.transfer("broadcast", panel_bytes)

    block_rows, inner = a.block_grid_shape
    inner_b, block_cols = b.block_grid_shape

    # Each worker accumulates exactly the result blocks it owns.
    partitions: list[list] = [[] for __ in range(layout.workers)]
    for worker in range(layout.workers):
        engine = context.engine_for_partition(worker)
        row, col = layout.cell(worker)
        owned: dict[tuple[int, int], DenseBlock] = {}
        for bi in range(row, block_rows, layout.pr):
            for bj in range(col, block_cols, layout.pc):
                target: DenseBlock | None = None
                for k in range(inner):
                    left = a_blocks.get((bi, k))
                    right = b_blocks.get((k, bj))
                    if left is None or right is None:
                        continue
                    engine.stats.record(
                        block_ops.matmul_flops(left, right),
                        left.is_sparse or right.is_sparse,
                    )
                    partial = block_ops.matmul(left, right)
                    if target is None:
                        target = partial
                    else:
                        block_ops.accumulate(target, partial)
                if target is not None:
                    owned[(bi, bj)] = target
        partitions[worker] = sorted(owned.items())

    rdd = RDD(context, partitions, BlockCyclicPartitioner(layout))
    return Grid2DMatrix(context, rdd, a.rows, b.cols, a.block_size, layout)


def summa_stage_count(a: Grid2DMatrix) -> int:
    """SUMMA runs one synchronised panel stage per inner block index --
    the "more computation stages" cost the paper attributes to 2-D
    methods."""
    __, inner = a.block_grid_shape
    return inner


def summa_predicted_bytes(a: Grid2DMatrix, b: Grid2DMatrix) -> int:
    """Analytic SUMMA traffic (what :func:`summa_matmul` will meter)."""
    layout = a.layout
    a_bytes = sum(model_sizeof(blk) for __, blk in a.rdd.collect())
    b_bytes = sum(model_sizeof(blk) for __, blk in b.rdd.collect())
    return a_bytes * (layout.pc - 1) + b_bytes * (layout.pr - 1)
