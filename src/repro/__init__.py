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

from repro._exports import export_table

_EXPORTS = {
    "ClockConfig": "repro.config",
    "ClusterConfig": "repro.config",
    "RecoveryConfig": "repro.config",
    "Plan": "repro.core.plan",
    "DMacPlanner": "repro.core.planner",
    "BlockError": "repro.errors",
    "ClusterError": "repro.errors",
    "ExecutionError": "repro.errors",
    "FaultSpecError": "repro.errors",
    "MemoryLimitExceeded": "repro.errors",
    "PlanError": "repro.errors",
    "ProgramError": "repro.errors",
    "ReproError": "repro.errors",
    "SchemeError": "repro.errors",
    "ShapeError": "repro.errors",
    "ShuffleBlockLost": "repro.errors",
    "StageExecutionError": "repro.errors",
    "TransferFault": "repro.errors",
    "TranslationValidationError": "repro.errors",
    "VerificationError": "repro.errors",
    "WorkerCrashed": "repro.errors",
    "ChaosEngine": "repro.faults.chaos",
    "parse_fault_spec": "repro.faults.spec",
    "MatrixProgram": "repro.lang.program",
    "ProgramBuilder": "repro.lang.program",
    "DistributedMatrix": "repro.matrix.distributed",
    "Scheme": "repro.matrix.schemes",
    "ClusterContext": "repro.rdd.context",
    "ExecutionResult": "repro.runtime.executor",
    "StageGraph": "repro.runtime.graph",
    "DMacSession": "repro.session",
}

__version__ = "1.0.0"

__all__ = sorted([*_EXPORTS, "__version__"])
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
