"""repro.verify -- static verification of DMac plans.

One forward pass over the plan's steps derives shapes from the operator
registry's shape rules (:func:`repro.verify.analysis.solve_shapes`), and a
reverse liveness sweep sits beside the memory predictor.  Three clients:

* **translation validation** (:mod:`repro.verify.certify`) -- certify
  every optimizer rewrite equivalence-preserving, or hard-fail
  optimization with :class:`~repro.errors.TranslationValidationError`;
* **hazard detection** (:mod:`repro.verify.hazards`) -- happens-before
  over the stage graph vs the plan's publish/consume events, surfacing
  read-before-publish and conflicting double-publish defects (the lint's
  DM3xx rules);
* **memory prediction** (:mod:`repro.verify.memory`) -- a sound
  per-worker peak bound mirroring the engines' tracker charges, sizing
  each matrix through the cost model's Equation-2 quotes
  (:class:`~repro.core.cost.CostModel`); exposed on
  ``ExecutionResult.predicted_peak_memory_bytes`` and behind DM206.

Entry points: :func:`verify_plan` for everything at once,
``repro verify <app>`` on the command line, ``DMacSession(verify=...)``
in a session.
"""

from repro._exports import export_table

_EXPORTS = {
    "Certificate": "repro.verify.certify",
    "certify": "repro.verify.certify",
    "value_summary": "repro.verify.certify",
    "DOUBLE_PUBLISH": "repro.verify.hazards",
    "READ_BEFORE_PUBLISH": "repro.verify.hazards",
    "Hazard": "repro.verify.hazards",
    "ancestor_masks": "repro.verify.hazards",
    "find_hazards": "repro.verify.hazards",
    "MemoryPrediction": "repro.verify.memory",
    "predict_peak_memory": "repro.verify.memory",
    "verify_plan": "repro.verify.report",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = export_table(__name__, _EXPORTS)
