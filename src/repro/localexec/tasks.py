"""Task objects for the local block engine (paper Section 5.3, Figure 4).

A *task* packages the metadata of operations that can run independently and
produce exactly one result block.  The two matmul aggregation strategies of
the paper differ only in how tasks are cut:

* **In-Place** -- one :class:`MultiplyAccumulateTask` per *result* block; the
  first ``A[i,k] @ B[k,j]`` partial product contributing to result ``(i, j)``
  is the result block and the others are folded into it, so no intermediate
  buffer exists.
* **Buffer** -- one :class:`MultiplyTask` per *partial* product; every
  ``A[i,k] @ B[k,j]`` is materialised, buffered, and aggregated at the end.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.blocks.ops import Block

BlockKey = tuple[int, int]


@dataclasses.dataclass(frozen=True)
class MultiplyAccumulateTask:
    """In-Place task: all partial products of one result block."""

    result_key: BlockKey
    result_shape: tuple[int, int]
    pairs: tuple[tuple[Block, Block], ...]


@dataclasses.dataclass(frozen=True)
class MultiplyTask:
    """Buffer task: a single block multiplication ``left @ right``."""

    result_key: BlockKey
    left: Block
    right: Block


@dataclasses.dataclass(frozen=True)
class BlockTask:
    """Generic per-block task: apply ``compute`` to produce one result block.

    Used for cell-wise, scalar and transpose grid operations where each
    result block depends on a fixed set of input blocks and no aggregation
    is involved.
    """

    result_key: BlockKey
    compute: Callable[[], Block]


@dataclasses.dataclass(frozen=True)
class TaskResult:
    """The output of a completed task."""

    result_key: BlockKey
    block: Block


def inplace_matmul_tasks(
    a_grid: dict[BlockKey, Block],
    b_grid: dict[BlockKey, Block],
) -> list[MultiplyAccumulateTask]:
    """Cut In-Place tasks for the block product of two local grids.

    For every result coordinate ``(i, j)`` with at least one matching inner
    index ``k`` present in both grids, one task carries all its pairs --
    accumulated in ascending ``k`` order, so the float summation order is a
    function of the block coordinates alone, never of grid insertion order
    (partitions arriving from a shuffle and natively produced ones hold the
    same blocks in different record orders).
    """
    by_result: dict[BlockKey, list[tuple[int, Block, Block]]] = {}
    b_by_k: dict[int, list[tuple[int, Block]]] = {}
    for (k, j), block in b_grid.items():
        b_by_k.setdefault(k, []).append((j, block))
    for (i, k), a_block in a_grid.items():
        for j, b_block in b_by_k.get(k, ()):
            by_result.setdefault((i, j), []).append((k, a_block, b_block))
    tasks = []
    for (i, j), triples in sorted(by_result.items()):
        triples.sort(key=lambda triple: triple[0])
        pairs = tuple((a, b) for __, a, b in triples)
        rows = pairs[0][0].shape[0]
        cols = pairs[0][1].shape[1]
        tasks.append(MultiplyAccumulateTask((i, j), (rows, cols), pairs))
    return tasks


def buffered_matmul_tasks(
    a_grid: dict[BlockKey, Block],
    b_grid: dict[BlockKey, Block],
) -> list[MultiplyTask]:
    """Cut Buffer tasks: one task per individual block multiplication."""
    b_by_k: dict[int, list[tuple[int, Block]]] = {}
    for (k, j), block in b_grid.items():
        b_by_k.setdefault(k, []).append((j, block))
    tasks = []
    for (i, k), a_block in sorted(a_grid.items()):
        for j, b_block in sorted(b_by_k.get(k, ()), key=lambda item: item[0]):
            tasks.append(MultiplyTask((i, j), a_block, b_block))
    return tasks
