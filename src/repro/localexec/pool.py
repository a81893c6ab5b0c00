"""Memory tracking and the result-buffer pool (paper Section 5.3, Figure 4).

The paper's local engine reuses inter-thread memory through a *result buffer
pool*: a task acquires a clean result block at start and returns it to the
pool when its output has been emitted.  Here a result block leaves the engine
as part of the grid it belongs to and nothing hands it back
(:meth:`ResultBufferPool.release` has no caller in the engine), so
:meth:`ResultBufferPool.acquire` is a charged, zero-filled allocation.  It
serves the Buffer strategy's aggregation; an In-Place task needs no zeroed
block at all -- its first product is its result block, charged directly on the
tracker -- and the batched path copies each result out of its accumulator
plane.  :class:`MemoryTracker` meters every
allocation against the paper's byte model so the In-Place-vs-Buffer memory
experiment (Figure 7) and the block-size experiment (Figure 8b) can be
reproduced; it optionally enforces a budget, which reproduces the paper's
observation that the Buffer strategy cannot complete the Wikipedia workload
within 48 GB per node.
"""

from __future__ import annotations

import threading
from collections import defaultdict

from repro.blocks.dense import DenseBlock
from repro.errors import MemoryLimitExceeded


class MemoryTracker:
    """Thread-safe current/peak byte counter with an optional hard limit."""

    def __init__(self, limit_bytes: int | None = None) -> None:
        self._lock = threading.Lock()
        self._limit = limit_bytes
        self._current = 0
        self._peak = 0

    @property
    def current_bytes(self) -> int:
        with self._lock:
            return self._current

    @property
    def peak_bytes(self) -> int:
        with self._lock:
            return self._peak

    @property
    def limit_bytes(self) -> int | None:
        return self._limit

    def allocate(self, nbytes: int) -> None:
        """Record an allocation; raises :class:`MemoryLimitExceeded` when the
        budget would be exceeded (the allocation is not recorded then)."""
        if nbytes < 0:
            raise ValueError(f"cannot allocate negative bytes: {nbytes}")
        with self._lock:
            new_current = self._current + nbytes
            if self._limit is not None and new_current > self._limit:
                raise MemoryLimitExceeded(
                    f"allocation of {nbytes} B exceeds limit "
                    f"({new_current} > {self._limit} B)"
                )
            self._current = new_current
            self._peak = max(self._peak, new_current)

    def release(self, nbytes: int) -> None:
        """Record a deallocation."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        with self._lock:
            self._current = max(0, self._current - nbytes)

    def reset_peak(self) -> None:
        """Reset the peak to the current level (between experiment phases)."""
        with self._lock:
            self._peak = self._current


class ResultBufferPool:
    """A pool of reusable zeroed dense result blocks, keyed by shape.

    The pool keeps at most ``max_per_shape`` free blocks per shape.  Pooled
    blocks stay charged to the tracker while cached (they still occupy
    memory); blocks evicted beyond the cap are released.
    """

    def __init__(self, tracker: MemoryTracker, max_per_shape: int = 16) -> None:
        if max_per_shape < 0:
            raise ValueError(f"max_per_shape must be >= 0, got {max_per_shape}")
        self._tracker = tracker
        self._max_per_shape = max_per_shape
        self._lock = threading.Lock()
        self._free: dict[tuple[int, int], list[DenseBlock]] = defaultdict(list)

    def acquire(self, rows: int, cols: int) -> DenseBlock:
        """Get a clean (all-zero) dense block of the requested shape."""
        with self._lock:
            free = self._free.get((rows, cols))
            if free:
                block = free.pop()
                block.data[:] = 0.0
                return block
        block = DenseBlock.zeros(rows, cols)
        self._tracker.allocate(block.model_nbytes)
        return block

    def release(self, block: DenseBlock) -> None:
        """Return a block to the pool (or free it past the per-shape cap)."""
        with self._lock:
            free = self._free[block.shape]
            if len(free) < self._max_per_shape:
                free.append(block)
                return
        self._tracker.release(block.model_nbytes)

    def drain(self) -> None:
        """Free every pooled block and release its memory charge."""
        with self._lock:
            pooled = [b for blocks in self._free.values() for b in blocks]
            self._free.clear()
        for block in pooled:
            self._tracker.release(block.model_nbytes)

    @property
    def cached_blocks(self) -> int:
        with self._lock:
            return sum(len(blocks) for blocks in self._free.values())
