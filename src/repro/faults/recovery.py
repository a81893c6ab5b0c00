"""Periodic checkpointing for lineage recovery.

:class:`CheckpointStore` persists loop-carried SSA instances (``X@v``)
every *k* iterations, charging simulated disk time, so a lineage cone
replays from the last checkpoint instead of iteration 0.

The recomputation itself is the runtime's
``repro.runtime.resources.ResourceManager._rebuild``, shared by lost blocks
and spilled cache pins: it re-runs the minimal lineage cone
(:mod:`repro.faults.lineage`) through the *same* metered kernels as the
original execution, charged to the consuming stage (ledger scope
``recovery/...``), and reads checkpointed instances back from this store.
Only the lost instance is restored, keeping the publish/release books
intact (``releases + losts - restores == publishes``).  Each checkpoint
written is one ``checkpoint`` event (:func:`repro.trace.emit.emit`), which
the run's recovery summary counts.
"""

from __future__ import annotations

import threading

from repro.core.plan import MatrixInstance
from repro.matrix.distributed import DistributedMatrix
from repro.rdd.sizeof import model_sizeof
from repro.trace.emit import emit


def _ssa_version(name: str) -> int | None:
    """The version of a loop-carried SSA name (``rank@3`` -> 3), or ``None``
    for plain (non-loop-carried) names."""
    __, sep, version = name.rpartition("@")
    if not sep:
        return None
    try:
        return int(version)
    except ValueError:
        return None


def _matrix_bytes(matrix: DistributedMatrix) -> int:
    return sum(model_sizeof(block) for block in matrix.driver_grid().values())


class CheckpointStore:
    """Keeps every k-th SSA version of loop-carried instances."""

    def __init__(self, every: int, clock) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.every = every
        self._clock = clock
        self._lock = threading.Lock()
        self._store: dict[MatrixInstance, tuple[DistributedMatrix, int]] = {}

    def maybe_checkpoint(self, instance: MatrixInstance, matrix) -> None:
        """Persist ``instance`` if it is a loop-carried version on the
        checkpoint cadence; charges simulated disk-write time."""
        version = _ssa_version(instance.name)
        if version is None or version % self.every != 0:
            return
        with self._lock:
            if instance in self._store:
                return
        nbytes = _matrix_bytes(matrix)
        self._clock.advance_disk(nbytes)
        with self._lock:
            self._store[instance] = (matrix, nbytes)
        emit({"event": "checkpoint", "instance": str(instance), "bytes": nbytes})

    def has(self, instance: MatrixInstance) -> bool:
        with self._lock:
            return instance in self._store

    def get(self, instance: MatrixInstance) -> DistributedMatrix:
        """Read a checkpoint back (charges simulated disk-read time)."""
        with self._lock:
            matrix, nbytes = self._store[instance]
        self._clock.advance_disk(nbytes)
        return matrix
