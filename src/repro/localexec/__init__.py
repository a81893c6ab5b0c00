"""Per-worker local execution engine (paper Section 5.3).

Task queue + lanes of a shared thread pool, with the In-Place and Buffer
aggregation strategies for block matrix multiplication and model-byte
memory metering.
"""

from repro._exports import export_table

_EXPORTS = {
    "Grid": "repro.localexec.engine",
    "LocalEngine": "repro.localexec.engine",
    "MemoryTracker": "repro.localexec.pool",
    "BlockKey": "repro.localexec.tasks",
    "BlockTask": "repro.localexec.tasks",
    "MultiplyAccumulateTask": "repro.localexec.tasks",
    "MultiplyTask": "repro.localexec.tasks",
    "TaskResult": "repro.localexec.tasks",
    "buffered_matmul_tasks": "repro.localexec.tasks",
    "inplace_matmul_tasks": "repro.localexec.tasks",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
