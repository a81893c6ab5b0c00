"""Per-worker local execution engine (paper Section 5.3).

Task queue + lanes of a shared thread pool, with the In-Place and Buffer
aggregation strategies for block matrix multiplication and model-byte
memory metering.
"""

from repro.localexec.engine import EngineStats, Grid, LocalEngine
from repro.localexec.pool import MemoryTracker
from repro.localexec.tasks import (
    BlockKey,
    BlockTask,
    MultiplyAccumulateTask,
    MultiplyTask,
    TaskResult,
    buffered_matmul_tasks,
    inplace_matmul_tasks,
)

__all__ = [
    "BlockKey",
    "BlockTask",
    "EngineStats",
    "Grid",
    "LocalEngine",
    "MemoryTracker",
    "MultiplyAccumulateTask",
    "MultiplyTask",
    "TaskResult",
    "buffered_matmul_tasks",
    "inplace_matmul_tasks",
]
