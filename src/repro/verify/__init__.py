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

from repro.verify.certify import (
    Certificate,
    ValueConflict,
    ValueSummary,
    certify,
    value_summary,
)
from repro.verify.hazards import (
    DOUBLE_PUBLISH,
    READ_BEFORE_PUBLISH,
    Hazard,
    ancestor_masks,
    find_hazards,
    happens_before,
)
from repro.verify.memory import (
    MemoryPrediction,
    StepFootprint,
    predict_peak_memory,
)
from repro.verify.report import VerificationReport, verify_plan

__all__ = [
    "Certificate",
    "DOUBLE_PUBLISH",
    "Hazard",
    "MemoryPrediction",
    "READ_BEFORE_PUBLISH",
    "StepFootprint",
    "ValueConflict",
    "ValueSummary",
    "VerificationReport",
    "ancestor_masks",
    "certify",
    "find_hazards",
    "happens_before",
    "predict_peak_memory",
    "value_summary",
    "verify_plan",
]
