"""Plan-level optimizer: the rewrite layer between planner and runtime.

See :mod:`repro.planopt.pipeline` for the pass pipeline and
:func:`optimize_plan`, the entry point ``DMacSession`` and the CLI use.
"""

from repro._exports import export_table

_EXPORTS = {
    "coalesce_repartitions": "repro.planopt.coalesce",
    "AppliedRewrite": "repro.planopt.common",
    "clone_plan": "repro.planopt.common",
    "eliminate_common_steps": "repro.planopt.cse",
    "eliminate_dead_steps": "repro.planopt.dce",
    "pin_loop_invariants": "repro.planopt.hoist",
    "PASSES": "repro.planopt.pipeline",
    "optimize_plan": "repro.planopt.pipeline",
    "replicate_products": "repro.planopt.replicate",
    "plan_structural_hash": "repro.planopt.structural",
    "program_fingerprint": "repro.planopt.structural",
    "step_structural_key": "repro.planopt.structural",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
