"""Python ``ast`` compiler frontend: typed functions -> plan IR.

One pipeline from user code to execution: a ``@matrix_program`` function
over :class:`Matrix`/:class:`Scalar` handles is lowered -- never executed
-- into the same :class:`~repro.lang.program.MatrixProgram` IR the rest of
the stack (planner, optimizer, verifier, executor, tracer) already
consumes.  Data-dependent ``while`` convergence loops compile to a
:class:`StagedProgram`, which the session runs segment by segment,
extending the plan dynamically until the condition scalar flips.
"""

from repro._exports import export_table

_EXPORTS = {
    "FrontendError": "repro.frontend.errors",
    "matrix_program": "repro.frontend.program",
    "CarriedVar": "repro.frontend.staged",
    "ConditionSpec": "repro.frontend.staged",
    "StagedOutput": "repro.frontend.staged",
    "StagedProgram": "repro.frontend.staged",
    "Matrix": "repro.frontend.types",
    "MatrixInput": "repro.frontend.types",
    "Scalar": "repro.frontend.types",
    "matrix_input": "repro.frontend.types",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
