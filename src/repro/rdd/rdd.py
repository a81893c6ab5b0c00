"""A minimal RDD: Spark's resilient distributed dataset, in process.

DMac's Spark layer (paper Section 5.4) needs partitioned records and one
wide transformation, ``partition_by``, which routes through the metered
shuffle service.  The matrix primitives build every other operation on
that: ``cpmm`` and the axis aggregates shuffle first and combine after,
which is the paper's "map-side combine off" -- the In-Place local engine
already emits pre-combined blocks.

An RDD remembers its partitioner when one is structurally guaranteed;
``partition_by`` with an equal partitioner is then a no-op, which is exactly
how Reference dependencies become free at the physical layer.
"""

from __future__ import annotations

from repro.errors import ClusterError
from repro.rdd.context import ClusterContext
from repro.rdd.partitioner import Partitioner
from repro.rdd.shuffle import shuffle

KV = tuple[object, object]


class RDD:
    """An immutable, partitioned collection of (key, value) records."""

    def __init__(
        self,
        context: ClusterContext,
        partitions: list[list[KV]],
        partitioner: Partitioner | None = None,
    ) -> None:
        if partitioner is not None and partitioner.num_partitions != len(partitions):
            raise ClusterError(
                f"partitioner expects {partitioner.num_partitions} partitions, "
                f"got {len(partitions)}"
            )
        self.context = context
        self._partitions = partitions
        self.partitioner = partitioner

    # -- structure ----------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def partition(self, index: int) -> list[KV]:
        """Records of one partition (the hosting worker's local view)."""
        return list(self._partitions[index])

    def worker_partitions(self, worker: int) -> list[KV]:
        """All records hosted by one worker (union of its partitions)."""
        return [
            record
            for index, partition in enumerate(self._partitions)
            if self.context.worker_for_partition(index) == worker
            for record in partition
        ]

    # -- the wide transformation (shuffle) ----------------------------------------

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Redistribute by ``partitioner``; a no-op if already so partitioned."""
        if self.partitioner == partitioner:
            return self
        partitions = shuffle(self.context, self._partitions, partitioner)
        return RDD(self.context, partitions, partitioner)

    # -- actions ------------------------------------------------------------

    def collect(self) -> list[KV]:
        """All records, gathered at the driver."""
        return [record for part in self._partitions for record in part]
