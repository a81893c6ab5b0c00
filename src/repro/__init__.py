"""DMac: dependency-aware distributed matrix computation.

A full reproduction of "Exploiting Matrix Dependency for Efficient
Distributed Matrix Computation" (Yu, Shao, Cui -- SIGMOD 2015): the matrix
language, the dependency-oriented planner with its Pull-Up Broadcast and
Re-assignment heuristics, the stage scheduler, a block-based local engine
(In-Place vs Buffer), and a metered in-process Spark-like substrate, plus
the paper's baselines (SystemML-S, ScaLAPACK, SciDB, single-machine R) and
benchmark applications (GNMF, PageRank, linear regression, collaborative
filtering, Lanczos SVD).

Public entry points::

    from repro import ClusterConfig, DMacSession, ProgramBuilder
"""

from repro.config import ClockConfig, ClusterConfig, RecoveryConfig
from repro.core.plan import Plan
from repro.core.planner import DMacPlanner
from repro.errors import (
    BlockError,
    ClusterError,
    ExecutionError,
    FaultInjected,
    FaultSpecError,
    MemoryLimitExceeded,
    PlanError,
    ProgramError,
    ReproError,
    SchemeError,
    ShapeError,
    ShuffleBlockLost,
    StageExecutionError,
    TransferFault,
    TranslationValidationError,
    VerificationError,
    WorkerCrashed,
)
from repro.faults import ChaosEngine, parse_fault_spec
from repro.lang.program import MatrixProgram, ProgramBuilder
from repro.matrix.distributed import DistributedMatrix
from repro.matrix.schemes import Scheme
from repro.rdd.context import ClusterContext
from repro.runtime.executor import ExecutionResult
from repro.runtime.graph import StageGraph
from repro.session import DMacSession

__version__ = "1.0.0"

__all__ = [
    "BlockError",
    "ChaosEngine",
    "ClockConfig",
    "ClusterConfig",
    "ClusterContext",
    "ClusterError",
    "DMacPlanner",
    "DMacSession",
    "DistributedMatrix",
    "ExecutionError",
    "ExecutionResult",
    "FaultInjected",
    "FaultSpecError",
    "MatrixProgram",
    "MemoryLimitExceeded",
    "Plan",
    "PlanError",
    "ProgramBuilder",
    "ProgramError",
    "RecoveryConfig",
    "ReproError",
    "Scheme",
    "SchemeError",
    "ShapeError",
    "ShuffleBlockLost",
    "StageExecutionError",
    "StageGraph",
    "TransferFault",
    "TranslationValidationError",
    "VerificationError",
    "WorkerCrashed",
    "parse_fault_spec",
    "__version__",
]
