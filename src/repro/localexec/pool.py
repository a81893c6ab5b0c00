"""Memory tracking for the local engine (paper Section 5.3, Figure 4).

The paper's local engine reuses inter-thread memory through a *result buffer
pool*: a task acquires a clean result block at start and returns it to the
pool when its output has been emitted.  Here a result block leaves the engine
as part of the grid it belongs to and nothing would hand it back, so the
engine keeps no pool: an In-Place task's first product is its result block,
charged directly on the tracker; the Buffer strategy aggregates onto one
charged zero block per result block.  :class:`MemoryTracker` meters every
allocation against the paper's byte model so the In-Place-vs-Buffer memory
experiment (Figure 7) and the block-size experiment (Figure 8b) can be
reproduced; it optionally enforces a budget, which reproduces the paper's
observation that the Buffer strategy cannot complete the Wikipedia workload
within 48 GB per node.
"""

from __future__ import annotations

import threading

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

