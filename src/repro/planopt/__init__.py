"""Plan-level optimizer: the rewrite layer between planner and runtime.

See :mod:`repro.planopt.pipeline` for the pass pipeline and
:func:`optimize_plan`, the entry point ``DMacSession`` and the CLI use.
"""

from repro.planopt.coalesce import coalesce_repartitions
from repro.planopt.common import (
    AppliedRewrite,
    clone_plan,
    toposort_steps,
)
from repro.planopt.cse import eliminate_common_steps
from repro.planopt.dce import eliminate_dead_steps
from repro.planopt.hoist import pin_loop_invariants
from repro.planopt.pipeline import (
    DEFAULT_PASSES,
    CoalescePass,
    CSEPass,
    DeadStepPass,
    HoistPass,
    Pass,
    PassContext,
    optimize_plan,
)
from repro.planopt.structural import (
    plan_structural_hash,
    program_fingerprint,
    step_structural_key,
    step_structural_key as structural_key,  # historical name
)

__all__ = [
    "AppliedRewrite",
    "CSEPass",
    "CoalescePass",
    "DEFAULT_PASSES",
    "DeadStepPass",
    "HoistPass",
    "Pass",
    "PassContext",
    "clone_plan",
    "coalesce_repartitions",
    "eliminate_common_steps",
    "eliminate_dead_steps",
    "optimize_plan",
    "pin_loop_invariants",
    "plan_structural_hash",
    "program_fingerprint",
    "step_structural_key",
    "structural_key",
    "toposort_steps",
]
