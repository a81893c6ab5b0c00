"""In-process Spark-like substrate with metered communication.

Everything that crosses a (logical) worker boundary goes through
:meth:`ClusterContext.transfer` -- the shuffle service and the matrix
primitives' broadcasts alike -- which reports to the single
:class:`CommunicationLedger` and advances the :class:`SimulatedClock`: the
two instruments from which every benchmark series in this reproduction is
read.
"""

from repro.rdd.clock import SimulatedClock, TimeBreakdown
from repro.rdd.context import ClusterContext
from repro.rdd.ledger import CommunicationLedger, TransferRecord
from repro.rdd.partitioner import (
    ColumnPartitioner,
    HashPartitioner,
    Partitioner,
    RowPartitioner,
)
from repro.rdd.rdd import RDD
from repro.rdd.shuffle import shuffle
from repro.rdd.sizeof import RECORD_OVERHEAD_BYTES, model_sizeof

__all__ = [
    "ClusterContext",
    "ColumnPartitioner",
    "CommunicationLedger",
    "HashPartitioner",
    "Partitioner",
    "RDD",
    "RECORD_OVERHEAD_BYTES",
    "RowPartitioner",
    "SimulatedClock",
    "TimeBreakdown",
    "TransferRecord",
    "model_sizeof",
    "shuffle",
]
