"""In-process Spark-like substrate with metered communication.

Everything that crosses a (logical) worker boundary goes through
:meth:`ClusterContext.transfer` -- the shuffle service and the matrix
primitives' broadcasts alike -- which reports to the single
:class:`CommunicationLedger` and advances the :class:`SimulatedClock`: the
two instruments from which every benchmark series in this reproduction is
read.
"""

from repro._exports import export_table

_EXPORTS = {
    "SimulatedClock": "repro.rdd.clock",
    "TimeBreakdown": "repro.rdd.clock",
    "ClusterContext": "repro.rdd.context",
    "CommunicationLedger": "repro.rdd.ledger",
    "ColumnPartitioner": "repro.rdd.partitioner",
    "HashPartitioner": "repro.rdd.partitioner",
    "Partitioner": "repro.rdd.partitioner",
    "RowPartitioner": "repro.rdd.partitioner",
    "RDD": "repro.rdd.rdd",
    "shuffle": "repro.rdd.shuffle",
    "RECORD_OVERHEAD_BYTES": "repro.rdd.sizeof",
    "model_sizeof": "repro.rdd.sizeof",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
